package mvcc

import (
	"sync"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// TransContext associates all record versions created by one write
// transaction (§2.2). Versions point to their TransContext; on commit the
// TransContext is pointed at a GroupCommitContext shared by every
// transaction committing in the same group, which is how one atomic CID
// store makes a whole group of versions visible at once.
type TransContext struct {
	TxnID uint64

	gcc atomic.Pointer[GroupCommitContext]

	// skipLog marks a transaction whose write set is already durable (a
	// two-phase-commit participant logged it in its prepare record), so the
	// group committer must not log it again.
	skipLog atomic.Bool

	// versions holds the transaction's versions until commit, when NewGroup
	// moves them into the group's list (undo, the commit logger and
	// prepare records read them before that).
	mu       sync.Mutex
	versions []*Version
}

// NewTransContext returns a context for the given transaction ID.
func NewTransContext(txnID uint64) *TransContext {
	return &TransContext{TxnID: txnID}
}

// Add records a version created by this transaction (the backward link used
// for CID propagation and group reclamation).
func (tc *TransContext) Add(v *Version) {
	tc.mu.Lock()
	tc.versions = append(tc.versions, v)
	tc.mu.Unlock()
}

// Versions returns the versions created by this transaction, in creation
// order. After commit the group owns them and this returns nil.
func (tc *TransContext) Versions() []*Version {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return append([]*Version(nil), tc.versions...)
}

// VersionCount returns how many versions the transaction created (0 once
// committed).
func (tc *TransContext) VersionCount() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.versions)
}

// SetSkipLog marks the write set as already durable, excluding it from the
// group committer's WAL record.
func (tc *TransContext) SetSkipLog() { tc.skipLog.Store(true) }

// SkipLog reports whether the write set is already durable elsewhere.
func (tc *TransContext) SkipLog() bool { return tc.skipLog.Load() }

// Group returns the GroupCommitContext once the transaction entered group
// commit, or nil while it is still active.
func (tc *TransContext) Group() *GroupCommitContext { return tc.gcc.Load() }

// setGroup links the context into its commit group.
func (tc *TransContext) setGroup(g *GroupCommitContext) { tc.gcc.Store(g) }

// CID resolves the transaction's commit identifier, or ts.Invalid before
// commit.
func (tc *TransContext) CID() ts.CID {
	g := tc.gcc.Load()
	if g == nil {
		return ts.Invalid
	}
	return g.CID()
}

// GroupCommitContext represents one group commit operation (§2.2, Figure 7):
// the set of transactions whose versions all share a single CID. Contexts
// are kept in a global list ordered by CID so that the group collector can
// identify whole garbage groups without traversing individual versions.
type GroupCommitContext struct {
	cid atomic.Uint64

	// versions is the group's one version list: the member transactions'
	// versions, moved out of their TransContexts when the group forms.
	// Compact replaces it with a filtered copy; a slice once stored is never
	// edited, so a walker that loaded it keeps a consistent view.
	versions atomic.Pointer[[]*Version]

	// List linkage. Structural changes are serialized by the owning
	// GroupList's mutex, but the pointers are atomics so iterators can walk
	// the list without taking it — commit publication must stay cheap while
	// collectors read the list.
	prev, next atomic.Pointer[GroupCommitContext]
	removed    bool // guarded by the GroupList mutex
}

// NewGroup creates a commit group over the given transaction contexts and
// points each of them at the group. The members' version lists move into
// the group, which becomes their only owner: the contexts keep no copy. The
// CID is still unassigned; the group becomes visible the moment AssignCID
// stores it.
func NewGroup(txns []*TransContext) *GroupCommitContext {
	g := &GroupCommitContext{}
	var vs []*Version
	for _, tc := range txns {
		tc.mu.Lock()
		if vs == nil {
			vs = tc.versions
		} else {
			vs = append(vs, tc.versions...)
		}
		tc.versions = nil
		tc.mu.Unlock()
		tc.setGroup(g)
	}
	g.versions.Store(&vs)
	return g
}

// AssignCID atomically publishes the group's commit identifier. After this
// single store, every version of every member transaction resolves to c.
func (g *GroupCommitContext) AssignCID(c ts.CID) { g.cid.Store(uint64(c)) }

// CID returns the group's commit identifier, or ts.Invalid before assignment.
func (g *GroupCommitContext) CID() ts.CID { return ts.CID(g.cid.Load()) }

// Propagate writes the group CID into every member version entry (the
// asynchronous backward CID propagation of §2.2), so later visibility checks
// do not chase pointers. It returns the number of versions touched.
func (g *GroupCommitContext) Propagate() int {
	c := g.CID()
	if c == ts.Invalid {
		return 0
	}
	vs := g.Versions()
	for _, v := range vs {
		v.SetCID(c)
	}
	return len(vs)
}

// Versions returns the group's version list without copying. It holds every
// unreclaimed version of the group and possibly some reclaimed ones (until
// Compact drops them); callers must not modify it.
func (g *GroupCommitContext) Versions() []*Version { return *g.versions.Load() }

// Compact drops reclaimed versions from the group's list once at least half
// of it is reclaimed, so they become unreachable and their memory can be
// freed, and returns the number of unreclaimed versions.
//
// The filtered list is a new slice swapped in atomically, never an in-place
// edit, so concurrent walkers of the old slice are unaffected. A version
// never becomes unreclaimed again, so any compaction — even one that filtered
// a slice a concurrent compaction already replaced — yields a superset of the
// live versions; the compare-and-swap only stops such a stale result from
// replacing a newer one.
func (g *GroupCommitContext) Compact() int {
	p := g.versions.Load()
	live := 0
	for _, v := range *p {
		if !v.Reclaimed() {
			live++
		}
	}
	if dead := len(*p) - live; dead == 0 || dead < live {
		return live
	}
	if live == 0 {
		g.versions.CompareAndSwap(p, &noVersions)
		return 0
	}
	kept := make([]*Version, 0, live)
	for _, v := range *p {
		if !v.Reclaimed() {
			kept = append(kept, v)
		}
	}
	g.versions.CompareAndSwap(p, &kept)
	return len(kept)
}

// noVersions is the shared list of a fully reclaimed group.
var noVersions []*Version

// GroupList is the ordered list of GroupCommitContext objects (Figure 7).
// Groups are appended in commit order, which is CID order, and removed by
// the group collector once fully reclaimed.
//
// Structural changes (Append/Remove) serialize on the mutex, but their
// critical sections are O(1) pointer swings and iteration never takes the
// lock at all: Ascending/Descending walk the atomic links live, so commit
// publication does not contend with collectors copying the whole list (the
// old design materialized a full slice under the lock per scan). A removed
// group keeps its own outgoing pointers, so an iterator standing on it
// continues into the remaining list — the same unlink discipline the
// lock-free RID hash uses.
type GroupList struct {
	mu    sync.Mutex
	head  atomic.Pointer[GroupCommitContext]
	tail  atomic.Pointer[GroupCommitContext]
	count atomic.Int64
}

// NewGroupList returns an empty list.
func NewGroupList() *GroupList { return &GroupList{} }

// Append adds a freshly committed group at the tail. Caller must append in
// CID order (the group committer serializes commits, so this holds).
func (gl *GroupList) Append(g *GroupCommitContext) {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	t := gl.tail.Load()
	g.prev.Store(t)
	// Publish the tail before linking the predecessor's next pointer: a
	// descending iterator that loads the new tail finds its prev already
	// set; an ascending iterator either misses g (it was appended mid-scan)
	// or sees it fully linked.
	gl.tail.Store(g)
	if t != nil {
		t.next.Store(g)
	} else {
		gl.head.Store(g)
	}
	gl.count.Add(1)
}

// Remove unlinks a fully reclaimed group. Removing twice is a no-op. The
// removed group's own prev/next stay intact so concurrent iterators standing
// on it keep walking the list.
func (gl *GroupList) Remove(g *GroupCommitContext) {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if g.removed {
		return
	}
	g.removed = true
	p, n := g.prev.Load(), g.next.Load()
	if p != nil {
		p.next.Store(n)
	} else {
		gl.head.Store(n)
	}
	if n != nil {
		n.prev.Store(p)
	} else {
		gl.tail.Store(p)
	}
	gl.count.Add(-1)
}

// Len returns the number of groups currently linked.
func (gl *GroupList) Len() int {
	return int(gl.count.Load())
}

// Ascending calls fn on each group from the oldest CID upward until fn
// returns false. Iteration is lock-free and live: fn may call Remove
// (including on the group it was handed), and groups appended or removed
// mid-scan may or may not be visited.
func (gl *GroupList) Ascending(fn func(*GroupCommitContext) bool) {
	for g := gl.head.Load(); g != nil; g = g.next.Load() {
		if !fn(g) {
			return
		}
	}
}

// Descending calls fn on each group from the newest CID downward until fn
// returns false (the interval collector's highest-CID-first iteration, §4.2
// step 3). Same liveness contract as Ascending.
func (gl *GroupList) Descending(fn func(*GroupCommitContext) bool) {
	for g := gl.tail.Load(); g != nil; g = g.prev.Load() {
		if !fn(g) {
			return
		}
	}
}
