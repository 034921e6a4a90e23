// Package resource implements VINO's accounting for quantity-constrained
// resources (§3.2 of the paper).
//
// Every thread has a resource account holding limits for each resource
// kind (physical memory, wired memory, network buffers, ...). A freshly
// installed graft has limits of zero; the installing thread may either
// transfer part of its own limits to the graft's account or direct that
// the graft's allocations be billed against the installer's account.
// Several processes can pool rights by each transferring limit into the
// same graft account — the paper's analogy to ticket delegation in
// lottery scheduling.
//
// When a thread invokes a grafted function, the kernel swaps the thread's
// account for the graft's, so the same mechanism that stops a process
// from exceeding its limits automatically applies to the graft.
//
// The set of kinds is closed: Kind is a dense index, and every limit,
// usage, transfer and snapshot is an Amounts vector with one slot per
// kind, so copying or restoring an account's balances is a value
// assignment.
package resource

import "fmt"

// Kind names a quantity-constrained resource. It indexes Amounts.
type Kind int

// Resource kinds used by the simulated kernel, in name order.
const (
	DiskBuffers Kind = iota // prefetch queue slots
	KernelHeap              // graft heap allocations, bytes
	Memory                  // heap pages, bytes
	Sockets                 // open network endpoints
	Threads                 // spawned worker threads
	WiredMemory             // unevictable pages, bytes
	numKinds
)

var kindNames = [numKinds]string{"disk-buffers", "kernel-heap", "memory", "sockets", "threads", "wired-memory"}

// String returns the kind's name as it appears in diagnostics.
func (k Kind) String() string { return kindNames[k] }

// Amounts is one quantity per resource kind, indexed by Kind:
// Amounts{Memory: 16 << 10} grants 16 KiB of memory and nothing else.
type Amounts [numKinds]int64

// LimitError reports an allocation denied because it would exceed the
// account's limit — the graft's request fails exactly as the process's
// would (paper §3.2).
type LimitError struct {
	Account string
	Kind    Kind
	Request int64
	Used    int64
	Limit   int64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("resource: account %q over limit for %s: request %d with %d/%d used",
		e.Account, e.Kind, e.Request, e.Used, e.Limit)
}

// Account tracks limits and usage for one principal (a process thread or a
// graft). Accounts are not safe for concurrent use; the simulated kernel
// is single-threaded by construction.
type Account struct {
	name   string
	bal    AccountSnap // limits, usage, high-water marks and denials
	billTo *Account
}

// NewAccount creates an empty account: every limit is zero, so every
// allocation fails until limits are granted. This is the paper's "when a
// graft is installed, it initially has limits of zero".
func NewAccount(name string) *Account { return &Account{name: name} }

// Name returns the account's diagnostic name.
func (a *Account) Name() string { return a.name }

// BillTo directs all of this account's charges to parent. Passing nil
// restores self-billing. Billing loops are rejected.
func (a *Account) BillTo(parent *Account) error {
	for p := parent; p != nil; p = p.billTo {
		if p == a {
			return fmt.Errorf("resource: billing cycle through account %q", a.name)
		}
	}
	a.billTo = parent
	return nil
}

// Billed returns the account that actually pays for this account's
// charges (itself if not redirected).
func (a *Account) Billed() *Account {
	b := a
	for b.billTo != nil {
		b = b.billTo
	}
	return b
}

// SetLimits assigns absolute limits for every kind. It is intended for
// root process and tenant accounts; grafts receive limits via Transfer.
func (a *Account) SetLimits(l Amounts) {
	for _, n := range l {
		if n < 0 {
			panic("resource: negative limit")
		}
	}
	a.bal.limit = l
}

// Limits returns the account's limit for every kind.
func (a *Account) Limits() Amounts { return a.bal.limit }

// Limit returns the account's limit for kind (zero if never granted).
func (a *Account) Limit(kind Kind) int64 { return a.bal.limit[kind] }

// Used returns the account's current usage of kind.
func (a *Account) Used(kind Kind) int64 { return a.bal.used[kind] }

// HighWater returns the account's peak usage of kind.
func (a *Account) HighWater(kind Kind) int64 { return a.bal.high[kind] }

// Available returns limit minus usage for kind on the paying account.
func (a *Account) Available(kind Kind) int64 {
	b := &a.Billed().bal
	return b.limit[kind] - b.used[kind]
}

// Denials returns how many charges this account has had refused.
func (a *Account) Denials() int64 { return a.Billed().bal.denied }

// Charge requests n units of kind. The charge lands on the paying account
// (this one, or the billing target). It returns a *LimitError, leaving
// usage unchanged, if the allocation would exceed the limit.
func (a *Account) Charge(kind Kind, n int64) error {
	if n < 0 {
		panic("resource: negative charge; use Release")
	}
	p := a.Billed()
	b := &p.bal
	if b.used[kind]+n > b.limit[kind] {
		b.denied++
		return &LimitError{Account: p.name, Kind: kind, Request: n, Used: b.used[kind], Limit: b.limit[kind]}
	}
	b.used[kind] += n
	if b.used[kind] > b.high[kind] {
		b.high[kind] = b.used[kind]
	}
	return nil
}

// Release returns n units of kind to the paying account. Releasing more
// than is used clamps to zero (the kernel may release on behalf of an
// aborted graft whose partial state was already undone).
func (a *Account) Release(kind Kind, n int64) {
	if n < 0 {
		panic("resource: negative release; use Charge")
	}
	b := &a.Billed().bal
	b.used[kind] = max(b.used[kind]-n, 0)
}

// Transfer moves limit (not usage) from this account to another: the
// paper's "the installing thread may transfer arbitrary amounts from its
// own limits to the newly installed graft". The source must have the
// headroom: you cannot transfer limit that your own usage still needs.
// The transfer is all-or-nothing: every kind's headroom is checked
// before any limit moves, so a refused transfer changes neither account.
func (a *Account) Transfer(to *Account, n Amounts) error {
	for _, v := range n {
		if v < 0 {
			panic("resource: negative transfer")
		}
	}
	if to == a {
		return nil
	}
	for k, v := range n {
		if v > 0 && a.bal.limit[k]-a.bal.used[k] < v {
			return &LimitError{Account: a.name, Kind: Kind(k), Request: v, Used: a.bal.used[k], Limit: a.bal.limit[k]}
		}
	}
	for k, v := range n {
		a.bal.limit[k] -= v
		to.bal.limit[k] += v
	}
	return nil
}

// AccountSnap is a copy of an account's balances, taken by the crash
// checkpointer. It is a value: the billing redirection is identity, not
// balance, and is left alone by restores.
type AccountSnap struct {
	limit, used, high Amounts
	denied            int64
}

// Snapshot copies the account's limits, usage, high-water marks and
// denial count.
func (a *Account) Snapshot() AccountSnap { return a.bal }

// RestoreSnapshot replaces the account's balances with a snapshot's.
func (a *Account) RestoreSnapshot(s AccountSnap) { a.bal = s }

// Kinds returns the kinds with a nonzero limit or usage, in name order.
func (a *Account) Kinds() []Kind {
	var out []Kind
	for k := Kind(0); k < numKinds; k++ {
		if a.bal.limit[k] != 0 || a.bal.used[k] != 0 {
			out = append(out, k)
		}
	}
	return out
}

// String summarises the account for diagnostics.
func (a *Account) String() string {
	s := fmt.Sprintf("account %q", a.name)
	if a.billTo != nil {
		s += fmt.Sprintf(" (billed to %q)", a.billTo.name)
	}
	for _, k := range a.Kinds() {
		s += fmt.Sprintf(" %s=%d/%d", k, a.bal.used[k], a.bal.limit[k])
	}
	return s
}
