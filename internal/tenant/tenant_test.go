package tenant

import (
	"testing"
	"time"

	"vino/internal/guard"
	"vino/internal/resource"
)

func expelled(key string, aborts int64, cost time.Duration) guard.GraftHealth {
	return guard.GraftHealth{Key: key, State: guard.Expelled, Aborts: aborts, AbortCost: cost}
}

// TestEscalationLadder: one expulsion throttles, a second bans, and
// admission shed follows the state deterministically.
func TestEscalationLadder(t *testing.T) {
	r := New(nil, nil, DefaultPolicy())
	r.Register("acme")
	r.BindGraft("acme", "tcp/80.connection#wild")
	r.BindGraft("acme", "tcp/81.connection#wild2")

	if got := r.Lookup("acme").State(); got != Active {
		t.Fatalf("initial state = %v", got)
	}
	for i := int64(0); i < 4; i++ {
		if !r.Admit("acme", i) {
			t.Fatalf("active tenant shed request %d", i)
		}
	}

	r.Observe(guard.Report{Grafts: []guard.GraftHealth{
		expelled("tcp/80.connection#wild", 3, 90*time.Microsecond),
	}})
	if got := r.Lookup("acme").State(); got != Throttled {
		t.Fatalf("after one expulsion state = %v, want throttled", got)
	}
	var admits []bool
	for i := int64(0); i < 4; i++ {
		admits = append(admits, r.Admit("acme", i))
	}
	want := []bool{true, false, true, false}
	for i := range want {
		if admits[i] != want[i] {
			t.Fatalf("throttled admits = %v, want %v", admits, want)
		}
	}

	r.Observe(guard.Report{Grafts: []guard.GraftHealth{
		expelled("tcp/80.connection#wild", 3, 90*time.Microsecond),
		expelled("tcp/81.connection#wild2", 2, 60*time.Microsecond),
	}})
	if got := r.Lookup("acme").State(); got != Banned {
		t.Fatalf("after two expulsions state = %v, want banned", got)
	}
	if r.Admit("acme", 0) {
		t.Fatal("banned tenant admitted")
	}
	if r.CanInstall("acme") {
		t.Fatal("banned tenant may still install")
	}

	h := r.Report()[0]
	if h.Expulsions != 2 || h.Aborts != 5 || h.AbortCost != 150*time.Microsecond {
		t.Fatalf("health = %+v", h)
	}
	if h.Shed != 3 { // 2 throttled odd seqs + 1 banned
		t.Fatalf("shed = %d, want 3", h.Shed)
	}
}

// TestObserveDeltas: re-observing an unchanged ledger accumulates
// nothing, and an expulsion transition counts exactly once.
func TestObserveDeltas(t *testing.T) {
	r := New(nil, nil, Policy{ThrottleExpulsions: 1, BanExpulsions: 5})
	r.BindGraft("acme", "p#g")
	row := expelled("p#g", 7, 210*time.Microsecond)
	for i := 0; i < 3; i++ {
		r.Observe(guard.Report{Grafts: []guard.GraftHealth{row}})
	}
	h := r.Report()[0]
	if h.Expulsions != 1 {
		t.Fatalf("expulsions = %d, want 1 (no re-count)", h.Expulsions)
	}
	if h.Aborts != 7 || h.AbortCost != 210*time.Microsecond {
		t.Fatalf("billing = %+v, want one copy of the deltas", h)
	}
	if got := r.Lookup("acme").State(); got != Throttled {
		t.Fatalf("state = %v", got)
	}

	// A later row with more aborts bills only the increment.
	row.Aborts, row.AbortCost = 9, 270*time.Microsecond
	r.Observe(guard.Report{Grafts: []guard.GraftHealth{row}})
	if h := r.Report()[0]; h.Aborts != 9 {
		t.Fatalf("aborts after increment = %d, want 9", h.Aborts)
	}
}

// TestEpochReset: after an instance replacement the fresh supervisor's
// ledger restarts empty; the baseline resets but standing and billing
// survive, and a re-expulsion after the reboot counts as new.
func TestEpochReset(t *testing.T) {
	r := New(nil, nil, DefaultPolicy())
	r.BindGraft("acme", "p#g")
	r.Observe(guard.Report{Grafts: []guard.GraftHealth{expelled("p#g", 3, 0)}})
	if got := r.Lookup("acme").State(); got != Throttled {
		t.Fatalf("state = %v", got)
	}
	r.EpochReset()
	if got := r.Lookup("acme").State(); got != Throttled {
		t.Fatalf("state after reset = %v, want throttled (ladder survives reboot)", got)
	}
	if h := r.Report()[0]; h.Aborts != 3 {
		t.Fatalf("billing after reset = %+v, want preserved", h)
	}
	// The rebooted instance reinstalls and the graft misbehaves again:
	// a fresh expulsion, counted, walks the tenant to banned.
	r.Observe(guard.Report{Grafts: []guard.GraftHealth{expelled("p#g", 2, 0)}})
	if got := r.Lookup("acme").State(); got != Banned {
		t.Fatalf("state after re-expulsion = %v, want banned", got)
	}
}

// TestTenantAccountsIsolated: each tenant's account is its own meter —
// limits granted by policy, charges on one tenant invisible to another.
func TestTenantAccountsIsolated(t *testing.T) {
	r := New(nil, nil, Policy{Limits: resource.Amounts{resource.Sockets: 2}})
	a := r.Register("a")
	b := r.Register("b")
	if err := a.Account.Charge(resource.Sockets, 2); err != nil {
		t.Fatalf("charge within limit: %v", err)
	}
	if err := a.Account.Charge(resource.Sockets, 1); err == nil {
		t.Fatal("charge past limit succeeded")
	}
	if used := b.Account.Used(resource.Sockets); used != 0 {
		t.Fatalf("tenant b used = %d, want 0 (no cross-tenant leakage)", used)
	}
	if err := b.Account.Charge(resource.Sockets, 1); err != nil {
		t.Fatalf("tenant b charge: %v", err)
	}
}
