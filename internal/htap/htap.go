// Package htap is the HTAP column lane over the row-store engine: a
// background migrator that ships settled row versions — versions already
// below the garbage-collection horizon, whose table-space image is the one
// every registered snapshot sees — into immutable, dictionary-encoded
// column chunks, plus a vectorized aggregate executor (exec.go) that scans
// the chunks and falls back to MVCC row reads for everything the chunks
// cannot vouch for.
//
// This is §2.1's row/column split made concrete under one MVCC engine: OLTP
// keeps writing row versions; the lane turns the settled tail of each table
// into columnar main storage; OLAP aggregates run over the vectors at
// memory speed while the un-migrated delta tail and any row the chunks no
// longer speak for (its chunk's dirty bit is set) go through ordinary
// snapshot reads.
//
// The consistency contract, per table:
//
//   - Every chunk generation is stamped with a watermark W, the timestamp
//     of a statement snapshot the migrator REGISTERED and held for the
//     whole pass. Registration pins the garbage-collection horizon at or
//     below W, so nothing the pass reads is reshaped underneath it.
//   - Only settled rows enter a chunk: a row that still has a version chain
//     is skipped and marked dirty, because some registered snapshot may
//     still need an older (or not-yet-committed newer) version — the
//     migrator never migrates a version another snapshot may still
//     need. This is the visibility guard; htap_test.go proves both
//     directions (guard on: pinned cursors block migration; guard
//     reverted: a scan observes a wrong aggregate).
//   - Each chunk generation owns a dirty bitmap. A write observer on the
//     table space sets a row's bit, under the chain latch and before the
//     write is visible to any snapshot, on any mutation of a chunk-covered
//     row (new version, GC settle, drop); dirty rows are served by row
//     reads. Bits are never cleared: a pass patches a dirty chunk into a
//     new generation with a fresh bitmap, re-settling only the dirty slots
//     and the slots above what the last pass built, and copying the rest.
//   - A pass links each new bitmap behind the old one and publishes the
//     observer bound (coverTarget) BEFORE it reads anything. The observer
//     marks a slot in the current generation and then in every successor,
//     so a write that lands between a pass's read of a row and its swap
//     stays dirty in the new generation.
//   - A scan at snapshot TS serves a chunk's present, clean slots from the
//     vectors iff TS >= the chunk's watermark; otherwise (a snapshot older
//     than the chunk) the whole range falls back to row reads. A patched
//     chunk takes the new pass's watermark: a clean slot has had no write
//     since a build read its settled image, so every snapshot at or above
//     the old watermark still sees that image.
//
// Chunks are never persisted. Lane enablement is one WAL record
// (wal.KindHTAPLane, re-logged by checkpoints); after recovery the lane
// manager re-enables each recorded lane and the migrator rebuilds chunks
// from the recovered table state.
package htap

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/colstore"
	"hybridgc/internal/core"
	"hybridgc/internal/ts"
	"hybridgc/internal/txn"
)

// Errors returned by the lane.
var (
	// ErrNoLane reports an aggregate or migration request for a table with
	// no enabled column lane.
	ErrNoLane = errors.New("htap: no column lane enabled for table")
	// ErrLaneExists reports EnableTable on a table that already has a lane
	// with a different schema.
	ErrLaneExists = errors.New("htap: lane already enabled with a different schema")
)

// Config tunes a Store.
type Config struct {
	// Interval is the background migrator period (<=0 selects 25ms).
	Interval time.Duration
	// ChunkSlots is the RID range length of one chunk (<=0 selects 4096).
	ChunkSlots int
}

func (c *Config) fill() {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.ChunkSlots <= 0 {
		c.ChunkSlots = 4096
	}
}

// laneChunk is one generation of one chunk: the sealed vectors, the RID the
// build actually considered rows through (slots above builtThrough existed
// as range but not as rows at build time, and the executor row-reads them
// until a later pass extends the chunk), and the generation's dirty
// bitmap. A chunk and its bitmap are swapped in together, so a scan that
// loaded a generation tests exactly the bits that vouch for its vectors.
type laneChunk struct {
	chunk        *colstore.Chunk
	builtThrough ts.RID
	dirty        *dirtyBits
}

// dirtyBits is one chunk generation's dirty bitmap: bit s set means slot s's
// vector value can no longer be trusted and scans row-read it. Bits are
// only ever set. next is the bitmap of the generation a migrator pass is
// building from this one; the write observer marks a slot here and then in
// every successor, so a write that lands during a build stays dirty after
// the swap.
type dirtyBits struct {
	words []atomic.Uint64
	next  atomic.Pointer[dirtyBits]
}

func newDirtyBits(slots int) *dirtyBits {
	return &dirtyBits{words: make([]atomic.Uint64, (slots+63)/64)}
}

// set marks one slot. A CAS loop, because atomic.Uint64.Or needs Go 1.23.
func (d *dirtyBits) set(slot int) {
	w := &d.words[slot>>6]
	bit := uint64(1) << (slot & 63)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// mark sets slot here, then follows next. Each next load comes after this
// bitmap's CAS, so if a pass's copy of this bitmap missed the bit, the load
// sees the successor the pass published before copying.
func (d *dirtyBits) mark(slot int) {
	for ; d != nil; d = d.next.Load() {
		d.set(slot)
	}
}

// word loads word i (slots 64i..64i+63).
func (d *dirtyBits) word(i int) uint64 { return d.words[i].Load() }

// count returns the number of set bits.
func (d *dirtyBits) count() int {
	n := 0
	for i := range d.words {
		n += bits.OnesCount64(d.word(i))
	}
	return n
}

// Lane is one table's column lane.
type Lane struct {
	tid    ts.TableID
	schema colstore.Schema
	slots  int

	// coverTarget is the observer bound: writes to RIDs <= coverTarget mark
	// the dirty bitmaps. Published at the START of a migrator pass, after
	// the pass has published every bitmap it will build and before any row
	// is read, so a concurrent writer cannot slip a mutation between the
	// build's read and the chunk swap unobserved. Fresh inserts (RID beyond
	// it) are skipped with one atomic load — the OLTP fast path.
	coverTarget atomic.Uint64
	// coveredHi is the RID range chunks authoritatively cover, advanced at
	// the END of a completed pass. rid <= coveredHi: chunk slot (or dirty
	// row fallback); rid > coveredHi: delta tail, always row-read.
	coveredHi atomic.Uint64

	// chunks is the current generation of every chunk, swapped whole. The
	// write observer and scans load it without a lock.
	chunks atomic.Pointer[[]laneChunk]
	// passMu serializes migrator passes: each generation is patched at most
	// once, by the pass that links its successor bitmap.
	passMu sync.Mutex

	// Counters surfaced through LaneStats.
	migratedRows  atomic.Int64
	rebuilds      atomic.Int64
	passes        atomic.Int64
	dictOverflows atomic.Int64
	decodeErrors  atomic.Int64
}

// loadChunks returns the current chunk generations.
func (l *Lane) loadChunks() []laneChunk {
	if p := l.chunks.Load(); p != nil {
		return *p
	}
	return nil
}

// observe is the write observer: a mutation of a chunk-covered row marks
// its slot in the current generation's bitmap and in any successor a pass
// is building. It runs under the version-chain latch, before the write is
// visible to any snapshot.
func (l *Lane) observe(rid ts.RID) {
	if uint64(rid) > l.coverTarget.Load() {
		return
	}
	i := int((rid - 1) / ts.RID(l.slots))
	if cs := l.loadChunks(); i < len(cs) {
		cs[i].dirty.mark(int(rid-1) % l.slots)
	}
}

// Store runs the column lane over one engine instance (one shard). Lanes
// are enabled per table; one background goroutine migrates all of them.
type Store struct {
	db  *core.DB
	cfg Config

	mu    sync.RWMutex
	lanes map[ts.TableID]*Lane

	stop chan struct{}
	done chan struct{}

	// guardOff disables the visibility guard — the migrator then treats
	// still-chained rows as settled, reading them at the build watermark
	// and NOT marking them dirty. Only the guard-regression test sets it;
	// with it on, a version still visible to a registered snapshot can be
	// migrated over, which is exactly the bug the guard exists to prevent.
	guardOff atomic.Bool
	// maxDict bounds each chunk column's string dictionary (0 selects
	// colstore.DefaultMaxDictSize); tests lower it to force overflows.
	maxDict int
	// beforeSwap, when set, runs after a pass has read every row it settles
	// and before it swaps the new chunk generations in. Tests use it to land
	// a write in that window.
	beforeSwap func()
}

// NewStore builds a lane store over db and re-enables every lane the
// engine has on record (recovered from the log, or applied from a
// replication stream).
func NewStore(db *core.DB, cfg Config) (*Store, error) {
	cfg.fill()
	s := &Store{db: db, cfg: cfg, lanes: make(map[ts.TableID]*Lane)}
	for tid, meta := range db.HTAPLanes() {
		schema, err := colstore.ParseSpec(meta.Spec)
		if err != nil {
			return nil, fmt.Errorf("htap: recovered lane for table %d: %w", tid, err)
		}
		if err := s.EnableTable(tid, schema); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// DB returns the engine instance the store runs over.
func (s *Store) DB() *core.DB { return s.db }

// EnableTable enables the column lane for a table: installs the write
// observer, records enablement durably (one wal.KindHTAPLane record), and
// leaves chunk building to the migrator. Idempotent for an identical
// schema.
func (s *Store) EnableTable(tid ts.TableID, schema colstore.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	if l := s.lanes[tid]; l != nil {
		s.mu.Unlock()
		if l.schema.Spec() != schema.Spec() {
			return fmt.Errorf("%w: table %d has %q, requested %q", ErrLaneExists, tid, l.schema.Spec(), schema.Spec())
		}
		return nil
	}
	lane := &Lane{tid: tid, schema: schema, slots: s.cfg.ChunkSlots}
	s.lanes[tid] = lane
	s.mu.Unlock()

	if err := s.db.ObserveTableWrites(tid, lane.observe); err != nil {
		s.mu.Lock()
		delete(s.lanes, tid)
		s.mu.Unlock()
		return err
	}
	return s.db.EnableHTAPLane(tid, schema.Spec(), s.db.Manager().CurrentTS())
}

// lane returns the table's lane, or nil.
func (s *Store) lane(tid ts.TableID) *Lane {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lanes[tid]
}

// Enabled reports whether the table has a column lane.
func (s *Store) Enabled(tid ts.TableID) bool { return s.lane(tid) != nil }

// Tables lists the lane-enabled tables in ID order.
func (s *Store) Tables() []ts.TableID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ts.TableID, 0, len(s.lanes))
	for tid := range s.lanes {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Start launches the background migrator. Stop ends it.
func (s *Store) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.run(s.stop, s.done)
}

// Stop halts the background migrator and waits for the in-flight pass.
func (s *Store) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

func (s *Store) run(stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.Migrate()
		case <-stop:
			return
		}
	}
}

// Migrate runs one migration pass over every lane (the manual form the
// background loop calls periodically; tests and examples call it directly).
// It returns the number of rows newly placed into chunks.
func (s *Store) Migrate() int {
	s.mu.RLock()
	lanes := make([]*Lane, 0, len(s.lanes))
	for _, l := range s.lanes {
		lanes = append(lanes, l)
	}
	s.mu.RUnlock()
	total := 0
	for _, l := range lanes {
		total += s.migrateLane(l)
	}
	return total
}

// migrateLane runs one pass for one lane: decide which chunks need work,
// publish their successor bitmaps and the observer bound, register the
// build snapshot (the watermark), patch each chunk, swap, advance
// coveredHi. A chunk needs work when its bitmap has a dirty slot or the
// table grew into its range; every other chunk is kept as it is.
func (s *Store) migrateLane(l *Lane) int {
	l.passMu.Lock()
	defer l.passMu.Unlock()
	maxRID, err := s.db.TableMaxRID(l.tid)
	if err != nil || maxRID == 0 {
		return 0
	}
	slots := ts.RID(l.slots)
	nChunks := int((maxRID + slots - 1) / slots)
	cur := l.loadChunks()
	if nChunks > len(cur) {
		// A range the lane has never covered gets an empty seed generation
		// first: the observer finds every covered RID's bitmap in the chunk
		// list, and a fresh chunk is then patched like any other.
		grown := append(cur[:len(cur):len(cur)], make([]laneChunk, nChunks-len(cur))...)
		for i := len(cur); i < nChunks; i++ {
			seed, err := s.seed(l, ts.RID(i)*slots+1, newDirtyBits(l.slots))
			if err != nil {
				return 0 // cannot happen with a validated schema
			}
			grown[i] = seed
		}
		l.chunks.Store(&grown)
		cur = grown
	}

	// Publish every successor bitmap, then the observer bound, before
	// reading anything: from here on, every mutation of a row the pass may
	// read lands in the bitmap of the generation being built.
	next := make([]*dirtyBits, len(cur))
	work := false
	for i, lc := range cur {
		if lc.builtThrough >= chunkEnd(i, slots, maxRID) && lc.dirty.count() == 0 {
			continue
		}
		next[i] = newDirtyBits(l.slots)
		lc.dirty.next.Store(next[i])
		work = true
	}
	if cur := l.coverTarget.Load(); cur < uint64(maxRID) {
		l.coverTarget.Store(uint64(maxRID))
	}
	l.passes.Add(1)
	if !work {
		return 0
	}

	// The build snapshot. Registering it pins this table's GC horizon at or
	// below W for the whole build: the settled images the pass reads are
	// exactly the versions visible at W, and nothing reshapes them
	// mid-build.
	snap := s.db.Manager().AcquireSnapshot(txn.KindStatement, []ts.TableID{l.tid})
	defer snap.Release()
	w := snap.TS()

	built := append([]laneChunk(nil), cur...)
	migrated := 0
	for i, nb := range next {
		if nb == nil {
			continue
		}
		lc, n := s.patch(l, cur[i], nb, chunkEnd(i, slots, maxRID), w)
		built[i] = lc
		migrated += n
		l.rebuilds.Add(1)
	}
	if s.beforeSwap != nil {
		s.beforeSwap()
	}
	l.chunks.Store(&built)
	l.coveredHi.Store(uint64(maxRID))
	l.migratedRows.Add(int64(migrated))
	return migrated
}

// chunkEnd is the last RID of chunk i that exists when the table's highest
// RID is maxRID.
func chunkEnd(i int, slots, maxRID ts.RID) ts.RID {
	if end := ts.RID(i+1) * slots; end < maxRID {
		return end
	}
	return maxRID
}

// seed returns an empty generation for the chunk starting at base, with
// dirty as its bitmap: no row settled, nothing built.
func (s *Store) seed(l *Lane, base ts.RID, dirty *dirtyBits) (laneChunk, error) {
	b, err := colstore.NewChunkBuilder(l.schema, base, l.slots, s.maxDict)
	if err != nil {
		return laneChunk{}, err
	}
	return laneChunk{chunk: b.Seal(0), builtThrough: base - 1, dirty: dirty}, nil
}

// patch builds the generation after old at watermark w, whose bitmap next
// is already linked behind old's. It starts from a copy of old's vectors,
// present bitmap and dictionary and re-settles only the slots old's bitmap
// marks dirty plus the slots above old.builtThrough, up to end. It returns
// the new generation and the number of rows it settled.
//
// A clean slot keeps its value under the new watermark: no write has
// touched the row since a build read its settled image, so every snapshot
// at or above the old watermark — and so at or above w — still sees that
// image. If a string dictionary overflows, the chunk is re-seeded empty
// (which drops the entries no slot uses any more) and settled afresh.
func (s *Store) patch(l *Lane, old laneChunk, next *dirtyBits, end ts.RID, w ts.CID) (laneChunk, int) {
	base := old.chunk.BaseRID()
	// The slots to re-settle: old's dirty bits, copied only now that next
	// is published, plus every slot above builtThrough.
	todo := make([]uint64, len(next.words))
	for i := range todo {
		todo[i] = old.dirty.word(i)
	}
	for rid := old.builtThrough + 1; rid <= end; rid++ {
		slot := int(rid - base)
		todo[slot>>6] |= 1 << (slot & 63)
	}
	b := old.chunk.Patch(s.maxDict)
	placed := 0
	for wi, word := range todo {
		for ; word != 0; word &= word - 1 {
			slot := wi<<6 + bits.TrailingZeros64(word)
			rid := base + ts.RID(slot)
			img, versioned, ok := s.db.RecordState(l.tid, rid)
			if !ok {
				// Hole or dropped row: the chunk slot is authoritatively absent.
				b.Clear(rid)
				continue
			}
			if versioned {
				// THE VISIBILITY GUARD. The row still has a version chain: its
				// table-space image is not the final word — a registered
				// snapshot (a pinned cursor, an old transaction) may still need
				// a chain version, or the chain may hold a newer version this
				// build's watermark must not leak past. Leave the row to the
				// MVCC row path and let a later pass migrate it once the
				// garbage collector has settled the chain below the horizon.
				if !s.guardOff.Load() {
					b.Clear(rid)
					next.set(slot)
					continue
				}
				// Guard reverted (test-only): migrate whatever is visible at
				// the build watermark and pretend the row is settled.
				img, ok = s.db.ReadAt(l.tid, rid, w)
				if !ok {
					b.Clear(rid)
					continue
				}
			}
			row, err := colstore.DecodeRow(l.schema, img)
			if err != nil {
				l.decodeErrors.Add(1)
				b.Clear(rid)
				next.set(slot)
				continue
			}
			if err := b.Set(rid, row); err != nil {
				if errors.Is(err, colstore.ErrDictOverflow) {
					l.dictOverflows.Add(1)
					if old.builtThrough >= base {
						// Re-seed empty under next, with a fresh successor
						// linked behind it before any row is read again.
						if seed, err := s.seed(l, base, next); err == nil {
							again := newDirtyBits(l.slots)
							next.next.Store(again)
							return s.patch(l, seed, again, end, w)
						}
					}
				}
				b.Clear(rid)
				next.set(slot)
				continue
			}
			placed++
		}
	}
	return laneChunk{chunk: b.Seal(w), builtThrough: end, dirty: next}, placed
}

// LaneStats is a point-in-time view of one lane.
type LaneStats struct {
	Table ts.TableID
	// Chunks and ChunkRows describe sealed columnar coverage.
	Chunks    int
	ChunkRows int64
	// CoveredRID is the RID range chunks authoritatively cover; DeltaRows
	// is the un-migrated tail beyond it (MaxRID - CoveredRID).
	CoveredRID ts.RID
	DeltaRows  int64
	// DirtyRows counts the set bits of the current chunk generations —
	// chunk-covered rows currently served by the row path.
	DirtyRows int64
	// Watermark is the oldest chunk watermark; Lag is the current commit
	// timestamp minus it — how far the columnar image trails the log.
	Watermark ts.CID
	Lag       ts.CID
	// MigratedRows counts rows ever settled into chunks (a row re-settled
	// after a write counts again); Rebuilds counts chunk patches, a fresh
	// chunk's first build included; Passes counts migrator passes.
	MigratedRows  int64
	Rebuilds      int64
	Passes        int64
	DictOverflows int64
	DecodeErrors  int64
}

// Stats reports every lane's state, in table-ID order.
func (s *Store) Stats() []LaneStats {
	cur := s.db.Manager().CurrentTS()
	var out []LaneStats
	for _, tid := range s.Tables() {
		l := s.lane(tid)
		if l == nil {
			continue
		}
		st := LaneStats{
			Table:         tid,
			CoveredRID:    ts.RID(l.coveredHi.Load()),
			MigratedRows:  l.migratedRows.Load(),
			Rebuilds:      l.rebuilds.Load(),
			Passes:        l.passes.Load(),
			DictOverflows: l.dictOverflows.Load(),
			DecodeErrors:  l.decodeErrors.Load(),
		}
		for _, lc := range l.loadChunks() {
			st.DirtyRows += int64(lc.dirty.count())
			if lc.builtThrough < lc.chunk.BaseRID() {
				continue // an empty seed a pass is still building
			}
			st.Chunks++
			st.ChunkRows += int64(lc.chunk.Rows())
			if w := lc.chunk.Watermark(); st.Watermark == 0 || w < st.Watermark {
				st.Watermark = w
			}
		}
		if maxRID, err := s.db.TableMaxRID(tid); err == nil && maxRID > st.CoveredRID {
			st.DeltaRows = int64(maxRID - st.CoveredRID)
		}
		if st.Watermark > 0 && cur > st.Watermark {
			st.Lag = cur - st.Watermark
		}
		out = append(out, st)
	}
	return out
}
