// Package tenant adds the multi-tenant layer over the grafting
// machinery: the paper's §3 claim is that resource accounting plus
// transactional containment lets a kernel host mutually distrusting
// extension authors, and this package makes the authors explicit. Every
// graft install is bound to a tenant identity; each tenant has its own
// resource.Account (swapped in on dispatch, so one tenant exhausting
// Sockets or KernelHeap cannot starve another), a tenant-scoped view of
// the guard ledger, and an escalation ladder of its own: a tenant whose
// grafts keep getting expelled is first throttled (a deterministic
// share of its traffic shed at admission), then banned outright
// (BULKHEAD-style per-compartment enforcement, lifted from the graft to
// the author).
//
// The registry is deliberately per-kernel-instance: a fleet of
// instances keeps one registry per instance, fed from that instance's
// own supervisor ledger, so escalation is deterministic within an
// instance regardless of how the fleet schedules instances onto
// workers.
package tenant

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/resource"
	"vino/internal/simclock"
	"vino/internal/trace"
)

// State is a tenant's standing on the escalation ladder.
type State int

const (
	// Active tenants serve all their traffic.
	Active State = iota
	// Throttled tenants have every other request shed at admission.
	Throttled
	// Banned tenants serve nothing; new installs are refused.
	Banned
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Throttled:
		return "throttled"
	case Banned:
		return "banned"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Policy sets the escalation thresholds and the resource grant every
// tenant account starts with.
type Policy struct {
	// ThrottleExpulsions is the number of graft expulsions at which a
	// tenant is throttled. Zero means the default (1).
	ThrottleExpulsions int
	// BanExpulsions is the number of graft expulsions at which a tenant
	// is banned. Zero means the default (2).
	BanExpulsions int
	// Limits is the resource grant installed on each tenant's account
	// at registration.
	Limits resource.Amounts
}

// DefaultPolicy throttles on the first expulsion and bans on the
// second.
func DefaultPolicy() Policy {
	return Policy{ThrottleExpulsions: 1, BanExpulsions: 2}
}

func (p Policy) withDefaults() Policy {
	if p.ThrottleExpulsions <= 0 {
		p.ThrottleExpulsions = 1
	}
	if p.BanExpulsions <= p.ThrottleExpulsions {
		p.BanExpulsions = p.ThrottleExpulsions + 1
	}
	return p
}

// Tenant is one extension author: an identity, a resource account all
// its grafts share, and its standing.
type Tenant struct {
	Name    string
	Account *resource.Account

	state      State
	expulsions int

	// Tenant-scoped guard billing, accumulated from ledger deltas.
	aborts       int64
	abortCost    time.Duration
	recoveries   int64
	recoveryCost time.Duration

	// Admission accounting.
	admitted int64
	shed     int64

	grafts map[string]bool // guard keys bound to this tenant
}

// State returns the tenant's standing.
func (t *Tenant) State() State { return t.state }

// Expulsions returns how many of the tenant's grafts have been
// expelled.
func (t *Tenant) Expulsions() int { return t.expulsions }

// Registry binds graft installs to tenant identities and walks the
// escalation ladder. One per kernel instance.
type Registry struct {
	clock  *simclock.Clock
	tr     *trace.Buffer
	policy Policy

	tenants map[string]*Tenant
	names   []string // registration order, for deterministic iteration

	owner map[string]string // guard key -> tenant name
	// last remembers each guard key's ledger row at the previous
	// Observe, so billing deltas and expulsion transitions are counted
	// exactly once.
	last map[string]guard.GraftHealth
}

// New creates a tenant registry.
func New(clock *simclock.Clock, tr *trace.Buffer, p Policy) *Registry {
	return &Registry{
		clock:   clock,
		tr:      tr,
		policy:  p.withDefaults(),
		tenants: make(map[string]*Tenant),
		owner:   make(map[string]string),
		last:    make(map[string]guard.GraftHealth),
	}
}

// Policy returns the registry's policy.
func (r *Registry) Policy() Policy { return r.policy }

func (r *Registry) emit(kind trace.Kind, subject, detail string) {
	if r.tr != nil {
		r.tr.Emit(r.clock.Now(), kind, subject, detail)
	}
}

// Register creates (or returns) the tenant, granting its account the
// policy's limits. The account's name is "tenant:<name>", the identity
// the durable-checkpoint importer and Reattach match on.
func (r *Registry) Register(name string) *Tenant {
	if t, ok := r.tenants[name]; ok {
		return t
	}
	t := &Tenant{
		Name:    name,
		Account: resource.NewAccount("tenant:" + name),
		grafts:  make(map[string]bool),
	}
	t.Account.SetLimits(r.policy.Limits)
	r.tenants[name] = t
	r.names = append(r.names, name)
	return t
}

// Lookup returns the tenant, or nil.
func (r *Registry) Lookup(name string) *Tenant { return r.tenants[name] }

// Tenants returns the tenants in registration order.
func (r *Registry) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(r.names))
	for _, n := range r.names {
		out = append(out, r.tenants[n])
	}
	return out
}

// InstallOptions returns install options binding a graft to the tenant:
// the graft's dispatch-time account swap charges the tenant's account
// directly. Event ordering and transfers can be set on the result.
func (r *Registry) InstallOptions(name string) graft.InstallOptions {
	t := r.Register(name)
	return graft.InstallOptions{Account: t.Account}
}

// CanInstall reports whether the tenant may install grafts (banned
// tenants may not).
func (r *Registry) CanInstall(name string) bool {
	t := r.tenants[name]
	return t == nil || t.state != Banned
}

// BindGraft records that a guard key belongs to a tenant, routing that
// graft's ledger rows into the tenant's billing.
func (r *Registry) BindGraft(name, guardKey string) {
	t := r.Register(name)
	t.grafts[guardKey] = true
	r.owner[guardKey] = name
}

// Owner returns the tenant name bound to a guard key ("" if unbound).
func (r *Registry) Owner(guardKey string) string { return r.owner[guardKey] }

// Admit decides whether a tenant's request is served, given a
// deterministic per-tenant sequence number. Active tenants serve
// everything; throttled tenants shed every other request; banned
// tenants shed everything. The decision depends only on (state, seq),
// so a fixed workload admits identically at any worker-pool size.
func (r *Registry) Admit(name string, seq int64) bool {
	t := r.Register(name)
	admit := true
	switch t.state {
	case Throttled:
		admit = seq%2 == 0
	case Banned:
		admit = false
	}
	if admit {
		t.admitted++
	} else {
		t.shed++
	}
	return admit
}

// Observe folds a guard ledger snapshot into the per-tenant view:
// abort and recovery billing is attributed to the owning tenant, and a
// graft's transition into the expelled state walks its tenant one rung
// up the escalation ladder. Deltas are computed against the previous
// Observe, so calling it every round double-counts nothing.
func (r *Registry) Observe(rep guard.Report) {
	for _, g := range rep.Grafts {
		name, ok := r.owner[g.Key]
		if !ok {
			continue
		}
		t := r.tenants[name]
		prev := r.last[g.Key]
		if d := g.Aborts - prev.Aborts; d > 0 {
			t.aborts += d
		}
		if d := g.AbortCost - prev.AbortCost; d > 0 {
			t.abortCost += d
		}
		if d := g.Recoveries - prev.Recoveries; d > 0 {
			t.recoveries += d
		}
		if d := g.RecoveryCost - prev.RecoveryCost; d > 0 {
			t.recoveryCost += d
		}
		if g.State == guard.Expelled && prev.State != guard.Expelled {
			t.expulsions++
			r.escalate(t)
		}
		r.last[g.Key] = g
	}
}

// escalate applies the ladder after an expulsion.
func (r *Registry) escalate(t *Tenant) {
	switch {
	case t.expulsions >= r.policy.BanExpulsions && t.state != Banned:
		t.state = Banned
		r.emit(trace.TenantBan, t.Name,
			fmt.Sprintf("%d grafts expelled (threshold %d)", t.expulsions, r.policy.BanExpulsions))
	case t.expulsions >= r.policy.ThrottleExpulsions && t.state == Active:
		t.state = Throttled
		r.emit(trace.TenantThrottle, t.Name,
			fmt.Sprintf("%d grafts expelled (threshold %d)", t.expulsions, r.policy.ThrottleExpulsions))
	}
}

// EpochReset clears the ledger-delta baseline. An instance replacement
// reboots the kernel with a fresh supervisor whose ledger restarts
// empty; without the reset, the first Observe after the reboot would
// miss transitions (old rows vanish) or re-count them (keys reappear
// healthy). Tenant standing and accumulated billing survive — the
// ladder does not forgive a reboot.
func (r *Registry) EpochReset() {
	r.last = make(map[string]guard.GraftHealth)
}

// Adopt rebinds the registry to a replacement kernel's clock and trace
// buffer, so escalation events after an instance reboot land in the
// rebooted instance's flight recorder instead of the dead one's.
func (r *Registry) Adopt(clock *simclock.Clock, tr *trace.Buffer) {
	r.clock, r.tr = clock, tr
}

// Reattach splices each tenant's live account into the restored grafts
// of a rebooted instance: the durable importer recreates accounts by
// name, and this replaces those copies with the tenant's own object so
// enforcement and auditing keep a single meter per tenant. Returns the
// number of grafts rebound.
func (r *Registry) Reattach(reg *graft.Registry) int {
	n := 0
	for _, name := range r.names {
		t := r.tenants[name]
		n += reg.RebindAccount(t.Account.Name(), t.Account)
	}
	return n
}

// Health is one row of the per-tenant health table.
type Health struct {
	Name       string
	State      State
	Grafts     int
	Expulsions int
	Aborts     int64
	AbortCost  time.Duration
	Recoveries int64
	RecCost    time.Duration
	Admitted   int64
	Shed       int64
}

// Report snapshots every tenant's standing and billing, sorted by
// tenant name.
func (r *Registry) Report() []Health {
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	out := make([]Health, 0, len(names))
	for _, n := range names {
		t := r.tenants[n]
		out = append(out, Health{
			Name:       t.Name,
			State:      t.state,
			Grafts:     len(t.grafts),
			Expulsions: t.expulsions,
			Aborts:     t.aborts,
			AbortCost:  t.abortCost,
			Recoveries: t.recoveries,
			RecCost:    t.recoveryCost,
			Admitted:   t.admitted,
			Shed:       t.shed,
		})
	}
	return out
}

// Table renders the per-tenant health table.
func Table(rows []Health) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenant ledger (%d tenants):\n", len(rows))
	fmt.Fprintf(&b, "  %-12s %-9s %6s %5s %6s %11s %4s %11s %7s %6s\n",
		"TENANT", "STATE", "GRAFTS", "EXPEL", "ABORT", "ABORTCOST", "REC", "RECCOST", "ADMIT", "SHED")
	for _, h := range rows {
		fmt.Fprintf(&b, "  %-12s %-9s %6d %5d %6d %11s %4d %11s %7d %6d\n",
			h.Name, h.State, h.Grafts, h.Expulsions, h.Aborts,
			fmtCost(h.AbortCost), h.Recoveries, fmtCost(h.RecCost), h.Admitted, h.Shed)
	}
	return b.String()
}

func fmtCost(d time.Duration) string {
	return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
}
