// Package table implements the table space of the HANA row store (§2.2): the
// catalog of tables and, per table, the records holding the oldest visible
// image of each row. The version space keeps newer images until garbage
// collection migrates them here. Each record carries the is_versioned flag
// that lets readers skip the RID hash table when a record has no chain.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridgc/internal/ts"
)

// Record is one row slot in the table space. Its image is the oldest
// retained version of the row; a nil image means the row's INSERT has not
// been migrated out of the version space yet (so readers that find no
// visible chain version treat the record as nonexistent).
type Record struct {
	key ts.RecordKey
	tbl *Table

	image     atomic.Pointer[[]byte]
	versioned atomic.Bool
	dropped   atomic.Bool
}

// Key returns the record's (table, RID) identity.
func (r *Record) Key() ts.RecordKey { return r.key }

// Image returns the current table-space image, or nil when the row has no
// migrated image yet.
func (r *Record) Image() []byte {
	p := r.image.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Versioned reports the is_versioned flag: whether the record has a version
// chain in the version space that readers must consult.
func (r *Record) Versioned() bool { return r.versioned.Load() }

// Dropped reports whether the record has been removed from its table.
func (r *Record) Dropped() bool { return r.dropped.Load() }

// InstallImage implements mvcc.RecordRef: garbage collection migrates the
// newest reclaimable image into the table space.
func (r *Record) InstallImage(img []byte) {
	r.image.Store(&img)
	r.tbl.notifyWrite(r.key.RID)
}

// DropRecord implements mvcc.RecordRef: a migrated DELETE (or a rolled-back
// INSERT) removes the row from the table space.
func (r *Record) DropRecord() {
	r.dropped.Store(true)
	r.image.Store(nil)
	r.tbl.remove(r)
	r.tbl.notifyWrite(r.key.RID)
}

// SetVersioned implements mvcc.RecordRef.
func (r *Record) SetVersioned(v bool) {
	r.versioned.Store(v)
	r.tbl.notifyWrite(r.key.RID)
}

// Table is one table's slice of the table space. RIDs are allocated densely
// from 1 so scans can walk the RID range in order.
type Table struct {
	ID   ts.TableID
	Name string

	mu      sync.RWMutex
	records map[ts.RID]*Record
	nextRID atomic.Uint64
	live    atomic.Int64
	// partitions is the partition count; 0 means unpartitioned. Records are
	// assigned round-robin by RID, so a partition is a deterministic RID
	// residue class — enough structure for partition pruning and
	// partition-scoped garbage collection.
	partitions atomic.Uint32

	// writeObs, when installed, observes every mutation of the table space —
	// version-chain flag flips, image installs by garbage collection, record
	// drops — with the affected RID. The HTAP column lane uses it to set
	// sticky dirty bits over chunk-covered rows; it fires under the chain
	// latch, so observers must be cheap and must not re-enter the engine.
	writeObs atomic.Pointer[func(ts.RID)]
}

// SetWriteObserver installs fn as the table's write observer (nil removes
// it). At most one observer is supported; installing replaces any previous
// one.
func (t *Table) SetWriteObserver(fn func(ts.RID)) {
	if fn == nil {
		t.writeObs.Store(nil)
		return
	}
	t.writeObs.Store(&fn)
}

// notifyWrite fires the write observer, if any, for rid.
func (t *Table) notifyWrite(rid ts.RID) {
	if p := t.writeObs.Load(); p != nil {
		(*p)(rid)
	}
}

// SetPartitions declares the table partitioned into n parts (n >= 2).
// Partitioning is logical: it changes how scopes and horizons are computed,
// not where records live.
func (t *Table) SetPartitions(n int) {
	if n >= 2 {
		t.partitions.Store(uint32(n))
	}
}

// Partitions returns the partition count (0 = unpartitioned).
func (t *Table) Partitions() int { return int(t.partitions.Load()) }

// PartitionOf maps a RID to its partition. Only meaningful when the table
// is partitioned.
func (t *Table) PartitionOf(rid ts.RID) ts.PartitionID {
	n := t.partitions.Load()
	if n == 0 {
		return 0
	}
	return ts.PartitionID(uint64(rid-1) % uint64(n))
}

// AllocRID returns a fresh record identifier.
func (t *Table) AllocRID() ts.RID {
	return ts.RID(t.nextRID.Add(1))
}

// EnsureNextRID raises the RID allocator to at least n. Recovery calls this
// while replaying inserts so post-recovery allocations never collide.
func (t *Table) EnsureNextRID(n ts.RID) {
	for {
		cur := t.nextRID.Load()
		if cur >= uint64(n) {
			return
		}
		if t.nextRID.CompareAndSwap(cur, uint64(n)) {
			return
		}
	}
}

// MaxRID returns the highest RID ever allocated (scans iterate 1..MaxRID).
func (t *Table) MaxRID() ts.RID { return ts.RID(t.nextRID.Load()) }

// Len returns the number of records currently present (including rows whose
// INSERT is still unmigrated, which readers may not see yet).
func (t *Table) Len() int { return int(t.live.Load()) }

// CreateRecord installs an empty record slot for rid. It fails if the RID is
// already occupied — the engine allocates RIDs, so a collision is a bug or a
// write-write race the caller must surface.
func (t *Table) CreateRecord(rid ts.RID) (*Record, error) {
	r := &Record{key: ts.RecordKey{Table: t.ID, RID: rid}, tbl: t}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.records[rid]; dup {
		return nil, fmt.Errorf("table %s: RID %d already exists", t.Name, rid)
	}
	t.records[rid] = r
	t.live.Add(1)
	return r, nil
}

// Get returns the record for rid, or nil.
func (t *Table) Get(rid ts.RID) *Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.records[rid]
}

// remove deletes the record slot if it is still the one registered.
func (t *Table) remove(r *Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur, ok := t.records[r.key.RID]; ok && cur == r {
		delete(t.records, r.key.RID)
		t.live.Add(-1)
	}
}

// ForEach visits records in ascending RID order until fn returns false. It
// walks the dense RID range, skipping holes left by deletes, and does not
// hold the table lock while fn runs.
func (t *Table) ForEach(fn func(*Record) bool) {
	max := t.MaxRID()
	for rid := ts.RID(1); rid <= max; rid++ {
		if r := t.Get(rid); r != nil {
			if !fn(r) {
				return
			}
		}
	}
}

// Catalog names and numbers the tables of one database.
type Catalog struct {
	mu     sync.RWMutex
	byName map[string]*Table
	byID   map[ts.TableID]*Table
	nextID uint32
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{byName: make(map[string]*Table), byID: make(map[ts.TableID]*Table)}
}

// Create registers a new table under name.
func (c *Catalog) Create(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	c.nextID++
	t := &Table{ID: ts.TableID(c.nextID), Name: name, records: make(map[ts.RID]*Record)}
	c.byName[name] = t
	c.byID[t.ID] = t
	return t, nil
}

// Restore registers a table under an explicit ID, for recovery from a
// checkpoint or log. The catalog's ID allocator advances past id.
func (c *Catalog) Restore(id ts.TableID, name string) (*Table, error) {
	if id == 0 {
		return nil, fmt.Errorf("catalog: cannot restore table %q with ID 0", name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if _, dup := c.byID[id]; dup {
		return nil, fmt.Errorf("catalog: table ID %d already exists", id)
	}
	t := &Table{ID: id, Name: name, records: make(map[ts.RID]*Record)}
	c.byName[name] = t
	c.byID[id] = t
	if uint32(id) > c.nextID {
		c.nextID = uint32(id)
	}
	return t, nil
}

// ByName returns the table called name, or nil.
func (c *Catalog) ByName(name string) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byName[name]
}

// ByID returns the table with the given ID, or nil.
func (c *Catalog) ByID(id ts.TableID) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.byID[id]
}

// Tables returns all tables in creation (ID) order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.byID))
	for id := ts.TableID(1); id <= ts.TableID(c.nextID); id++ {
		if t, ok := c.byID[id]; ok {
			out = append(out, t)
		}
	}
	return out
}
