package mvcc

import (
	"slices"
	"sync"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// RecordRef is the version space's handle on a record in the table space. It
// is how garbage collection migrates the newest reclaimable image out of the
// version space ("the added data is moved to the table space once it is
// certain that there is no potential reader to the original data", §2.2) and
// maintains the record's is_versioned flag.
type RecordRef interface {
	// InstallImage replaces the table-space image of the record. A nil image
	// never reaches this method; DELETE migration uses DropRecord.
	InstallImage(img []byte)
	// DropRecord removes the record from the table space entirely (a DELETE
	// version migrated, or an INSERT rolled back).
	DropRecord()
	// SetVersioned maintains the record's is_versioned flag: true while the
	// record has a version chain, false once the chain disappears so readers
	// can skip the RID hash table lookup.
	SetVersioned(bool)
}

// Chain is one record's version chain: record versions with the same RID
// linked in latest-first order (§2.2). The head pointer lives in the RID
// hash table; readers traverse lock-free, writers and collectors serialize
// on the chain latch.
type Chain struct {
	Key ts.RecordKey
	Rec RecordRef

	mu   sync.Mutex
	head atomic.Pointer[Version]
	// dead marks a chain that has been unlinked from the hash table; writers
	// that raced with the removal retry their lookup.
	dead bool

	// bucketNext links chains within one hash bucket. Writes happen under
	// the bucket mutex; reads are lock-free atomic loads (HashTable.Get).
	// After an unlink the pointer is left intact so in-flight readers keep
	// traversing the bucket.
	bucketNext atomic.Pointer[Chain]

	length atomic.Int32
}

// Head returns the latest version, committed or not (nil for an empty chain).
func (c *Chain) Head() *Version { return c.head.Load() }

// Len returns the number of versions currently linked.
func (c *Chain) Len() int { return int(c.length.Load()) }

// Visible returns the newest committed version with CID <= at, traversing
// latest-first, together with the number of version entries examined (the
// traversal cost reported in Figure 15). It returns nil when no chain
// version is visible, in which case the reader falls back to the table-space
// image.
func (c *Chain) Visible(at ts.CID) (v *Version, steps int) {
	return c.VisibleAs(at, nil)
}

// VisibleAs is Visible with own-write visibility: uncommitted versions
// created by the given transaction context are visible to it (a transaction
// always sees its own writes, regardless of statement snapshots).
func (c *Chain) VisibleAs(at ts.CID, own *TransContext) (v *Version, steps int) {
	for cur := c.head.Load(); cur != nil; cur = cur.Older() {
		steps++
		if cid := cur.CID(); cid != ts.Invalid && cid <= at {
			return cur, steps
		} else if cid == ts.Invalid && own != nil && cur.tctx == own {
			return cur, steps
		}
	}
	return nil, steps
}

// committedAscendingLocked appends the chain's committed versions and their
// CIDs to vs and cids in ascending CID order — the T sequence of Definition
// 1. Uncommitted versions (always the newest, at the head) are excluded. Must
// be called with the chain latch held.
func (c *Chain) committedAscendingLocked(vs []*Version, cids []ts.CID) ([]*Version, []ts.CID) {
	from := len(vs)
	for cur := c.head.Load(); cur != nil; cur = cur.Older() {
		if cur.Committed() {
			vs = append(vs, cur)
		}
	}
	// Chain order is latest-first; reverse into ascending CID order.
	slices.Reverse(vs[from:])
	for _, v := range vs[from:] {
		cids = append(cids, v.CID())
	}
	return vs, cids
}

// CommittedCIDs returns the chain's committed CIDs in ascending order.
func (c *Chain) CommittedCIDs() []ts.CID {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, cids := c.committedAscendingLocked(nil, nil)
	return cids
}

// prependLocked links v as the new head. Caller holds the chain latch.
func (c *Chain) prependLocked(v *Version) {
	v.chain = c
	v.older.Store(c.head.Load())
	c.head.Store(v)
	c.length.Add(1)
}

// spliceOutLocked unlinks v from the chain, preserving v's own older pointer
// so that in-flight readers holding v can keep traversing. Returns true if v
// was found. Caller holds the chain latch.
func (c *Chain) spliceOutLocked(v *Version) bool {
	cur := c.head.Load()
	if cur == v {
		c.head.Store(v.Older())
		c.length.Add(-1)
		return true
	}
	for cur != nil {
		next := cur.Older()
		if next == v {
			cur.older.Store(v.Older())
			c.length.Add(-1)
			return true
		}
		cur = next
	}
	return false
}
