package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/fault"
	"hybridgc/internal/sts"
	"hybridgc/internal/ts"
	"hybridgc/internal/wal"
	"hybridgc/internal/wire"
)

// SourceConfig tunes the primary side of replication.
type SourceConfig struct {
	// MaxSegmentLag bounds how many log segments a replica may trail the
	// primary's active segment before it is demoted (<=0 selects 8). This is
	// the cluster-wide analogue of the paper's version-space concern: an
	// unbounded laggard would pin segment retention (and, through its
	// snapshot reports, the GC horizon) forever.
	MaxSegmentLag int
	// StaleAfter demotes a replica that has not reported for this long
	// (<=0 selects 10s). It doubles as the stream's read deadline.
	StaleAfter time.Duration
	// HeartbeatEvery paces stream heartbeats and the lag/drain checks
	// (<=0 selects 500ms).
	HeartbeatEvery time.Duration
	// WriteTimeout bounds every stream write — records, heartbeats, end
	// messages, and refusal frames (<=0 selects 5s). A partitioned replica
	// stops draining its socket; once the kernel buffers fill, the next
	// write blocks until this deadline fires and the stream tears down,
	// releasing the replica's horizon pin immediately (the sweeper demotes
	// it after StaleAfter). Without this bound a partition could pin the GC
	// horizon for as long as the partition lasts.
	WriteTimeout time.Duration
}

// tailBuffer sizes each stream's live-tail channel. A stream that cannot
// drain it is torn down rather than ever blocking commits.
const tailBuffer = 4096

func (c *SourceConfig) fill() {
	if c.MaxSegmentLag <= 0 {
		c.MaxSegmentLag = 8
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 10 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
}

// replicaState is the primary's view of one replica. Guarded by Source.mu.
type replicaState struct {
	id        string
	connected bool
	demoted   bool
	applied   wal.LSN
	openSnaps int64
	// pin holds the replica's oldest open snapshot timestamp in the
	// primary's snapshot-timestamp registry, making every GC variant
	// respect remote readers. Nil while the replica reports no snapshots;
	// always released on stream detach.
	pin   *sts.Handle
	pinTS ts.CID
	// floor is the lowest log segment this replica still needs: 0 during
	// bootstrap (everything), then the segment of its applied LSN. It
	// survives disconnects so a briefly-absent replica can resume, and is
	// dropped on demotion.
	floor      uint64
	hasFloor   bool
	lastReport time.Time
}

// Source is the primary-side replication service. It implements
// server.ReplHandler structurally; the server package never imports repl.
type Source struct {
	db  *core.DB
	log *wal.Log
	cfg SourceConfig

	mu       sync.Mutex
	replicas map[string]*replicaState
	closed   bool

	recordsSent atomic.Int64
	demotions   atomic.Int64

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewSource builds the replication source over a persistent primary and
// registers its segment-retention hook: from here on, checkpoints never
// prune a segment the slowest live replica still needs.
func NewSource(db *core.DB, cfg SourceConfig) (*Source, error) {
	cfg.fill()
	if db.WAL() == nil {
		return nil, errors.New("repl: source requires a persistent database")
	}
	s := &Source{
		db:        db,
		log:       db.WAL(),
		cfg:       cfg,
		replicas:  make(map[string]*replicaState),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	db.SetSegmentRetention(s.lowestNeeded)
	go s.sweeper()
	return s, nil
}

// Close stops the staleness sweeper and refuses new streams. Active streams
// end through server drain (their pins are released on detach).
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopSweep)
	<-s.sweepDone
}

// lowestNeeded is the segment-retention hook: the minimum floor over every
// replica that still counts (not demoted). ok=false when no replica pins
// retention, letting checkpoints prune freely.
func (s *Source) lowestNeeded() (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	low, ok := uint64(0), false
	for _, st := range s.replicas {
		if st.demoted || !st.hasFloor {
			continue
		}
		if !ok || st.floor < low {
			low, ok = st.floor, true
		}
	}
	return low, ok
}

// sweeper demotes replicas that disconnected and stayed silent past
// StaleAfter, releasing their hold on segment retention.
func (s *Source) sweeper() {
	defer close(s.sweepDone)
	period := s.cfg.StaleAfter / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopSweep:
			return
		case <-t.C:
			s.mu.Lock()
			for _, st := range s.replicas {
				if !st.connected && !st.demoted && time.Since(st.lastReport) > s.cfg.StaleAfter {
					s.demoteLocked(st)
				}
			}
			s.mu.Unlock()
		}
	}
}

// demoteLocked drops everything the replica holds over the primary — its
// horizon pin and its segment floor — and marks it for re-bootstrap.
func (s *Source) demoteLocked(st *replicaState) {
	s.releasePinLocked(st)
	st.hasFloor = false
	st.demoted = true
	s.demotions.Add(1)
}

// releasePinLocked drops the replica's horizon pin. FPPinLeak gates the
// release so tests can re-introduce the "dead peer pins the GC horizon
// forever" bug and prove the chaos harness detects it.
func (s *Source) releasePinLocked(st *replicaState) {
	if st.pin == nil {
		return
	}
	if fault.Hit(FPPinLeak) != nil {
		return
	}
	st.pin.Release()
	st.pin = nil
	st.pinTS = 0
}

// admit registers the stream under Source.mu and sets the replica's initial
// segment floor before any checkpoint or segment work happens — closing the
// race where a concurrent checkpoint prunes a segment the stream is about
// to read.
func (s *Source) admit(req wire.ReplStreamRequest) (*replicaState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, wire.ErrDraining
	}
	st := s.replicas[req.ReplicaID]
	if st == nil {
		st = &replicaState{id: req.ReplicaID}
		s.replicas[req.ReplicaID] = st
	}
	if st.connected {
		return nil, fmt.Errorf("%w: replica %q is already streaming", wire.ErrBadRequest, req.ReplicaID)
	}
	if st.demoted && req.StartLSN != 0 {
		return nil, wire.ErrReplDemoted
	}
	st.demoted = false
	st.connected = true
	st.lastReport = time.Now()
	st.applied = wal.LSN(req.StartLSN)
	if req.StartLSN == 0 {
		st.floor, st.hasFloor = 0, true // bootstrap: retain everything
	} else {
		st.floor, st.hasFloor = wal.LSN(req.StartLSN).Segment(), true
	}
	return st, nil
}

// detach ends the stream's hold on the horizon: the pin is released (a
// disconnected replica's snapshots cannot be trusted to still exist), while
// the floor and report time survive so a quick reconnect resumes cheaply.
// The sweeper demotes the replica if it stays away past StaleAfter.
func (s *Source) detach(st *replicaState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.connected = false
	st.lastReport = time.Now()
	s.releasePinLocked(st)
}

// refuse answers the OpReplStream request with an error frame (the stream
// never started, so the request/response protocol still applies).
func (s *Source) refuse(nc net.Conn, bw *bufio.Writer, err error) error {
	body := (&wire.Builder{}).U16(wire.ErrorCode(err)).Str(err.Error()).Take()
	_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, werr := wire.WriteFrame(bw, wire.StErr, body); werr == nil {
		_ = bw.Flush()
	}
	return err
}

// ServeStream drives one hijacked replication stream; it implements
// server.ReplHandler. The calling goroutine is the stream's only writer
// (records, heartbeats, end messages); a second goroutine reads the
// replica's reports.
func (s *Source) ServeStream(nc net.Conn, br *bufio.Reader, bw *bufio.Writer, req wire.ReplStreamRequest, draining func() bool) error {
	if req.ReplicaID == "" {
		return s.refuse(nc, bw, fmt.Errorf("%w: empty replica id", wire.ErrBadRequest))
	}
	st, err := s.admit(req)
	if err != nil {
		return s.refuse(nc, bw, err)
	}
	defer s.detach(st)

	// Subscribe to live appends before looking at the disk so nothing falls
	// between catch-up and tailing; duplicates are skipped by LSN order.
	sub := s.log.Subscribe(tailBuffer)
	defer sub.Close()

	var ck *wal.Checkpoint
	bootstrap := req.StartLSN == 0
	if bootstrap {
		// The floor registered by admit (0) keeps Checkpoint from pruning
		// anything while the bootstrap is in flight.
		ck, err = wal.ReadCheckpoint(s.db.PersistDir())
		if errors.Is(err, wal.ErrNoCheckpoint) {
			if err = s.db.Checkpoint(); err == nil {
				ck, err = wal.ReadCheckpoint(s.db.PersistDir())
			}
		}
		if err != nil {
			return s.refuse(nc, bw, fmt.Errorf("repl: checkpoint for bootstrap: %w", err))
		}
	}

	segs, err := wal.Segments(s.db.PersistDir())
	if err != nil {
		return s.refuse(nc, bw, err)
	}
	startSeg := wal.LSN(req.StartLSN).Segment()
	if !bootstrap {
		// Resume is only possible while the starting segment is retained
		// and the cursor is not past the head.
		found := false
		for _, seg := range segs {
			if seg.Seq == startSeg {
				found = true
				break
			}
		}
		if !found || wal.LSN(req.StartLSN) > s.log.NextLSN() {
			s.mu.Lock()
			st.hasFloor = false // the floor admit set points at nothing
			s.mu.Unlock()
			return s.refuse(nc, bw, wire.ErrReplTooOld)
		}
	}

	// Accept: the StOK body carries the stream head so the replica can see
	// its lag immediately.
	ack := (&wire.Builder{}).U64(uint64(s.log.NextLSN())).Take()
	if _, err := wire.WriteFrame(bw, wire.StOK, ack); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	readerErr := make(chan error, 1)
	go s.readReports(nc, br, st, readerErr)

	if bootstrap {
		if err := s.send(nc, bw, wire.RmCheckpoint, wal.EncodeCheckpoint(ck)); err != nil {
			return err
		}
	}

	// Catch-up: ship retained segments from the cursor. Records the
	// checkpoint already covers are skipped CID-wise by the applier. The
	// drain flag is checked per record: a long catch-up throttled by a slow
	// replica's TCP backpressure must end promptly on server shutdown, not
	// when a per-message write deadline eventually fires.
	lastSent, sentAny := wal.LSN(0), false
	for _, seg := range segs {
		if seg.Seq < startSeg {
			continue
		}
		err := wal.ReadSegmentPayloads(seg.Path, func(idx uint64, payload []byte) error {
			lsn := wal.MakeLSN(seg.Seq, idx)
			if uint64(lsn) < req.StartLSN {
				return nil
			}
			if draining() {
				return errDrainedCatchup
			}
			if err := fault.Hit(FPPartialSegment); err != nil {
				return err
			}
			if err := s.sendRecord(nc, bw, lsn, payload); err != nil {
				return err
			}
			lastSent, sentAny = lsn, true
			return nil
		})
		if errors.Is(err, errDrainedCatchup) {
			_ = s.send(nc, bw, wire.RmEnd, endBody(wire.EndDrain, "primary draining"))
			return nil
		}
		if err != nil {
			return err
		}
	}

	// The initial catch-up ends here; until the replica has applied
	// everything it shipped, the lag bound stays out of the picture (see
	// lagging). The live tail below keeps extending lastSent, so the
	// catch-up horizon is captured now.
	catchupEnd, catchupSent := lastSent, sentAny

	// Live tail.
	hb := time.NewTicker(s.cfg.HeartbeatEvery)
	defer hb.Stop()
	for {
		select {
		case err := <-readerErr:
			return err
		case a, ok := <-sub.C():
			if !ok {
				_ = s.send(nc, bw, wire.RmEnd, endBody(wire.EndError, "wal subscription cancelled"))
				return fmt.Errorf("repl: stream %q lost its wal subscription (overflow=%v)", st.id, sub.Overflowed())
			}
			if (sentAny && a.LSN <= lastSent) || uint64(a.LSN) < req.StartLSN {
				continue // already shipped during catch-up
			}
			if err := s.sendRecord(nc, bw, a.LSN, a.Payload); err != nil {
				return err
			}
			lastSent, sentAny = a.LSN, true
		case <-hb.C:
			if draining() {
				_ = s.send(nc, bw, wire.RmEnd, endBody(wire.EndDrain, "primary draining"))
				return nil
			}
			if err := fault.Hit(FPStreamDrop); err != nil {
				nc.Close()
				return err
			}
			s.refreshFloor(st, lastSent, sentAny)
			if s.lagging(st, catchupEnd, catchupSent) {
				s.mu.Lock()
				s.demoteLocked(st)
				s.mu.Unlock()
				_ = s.send(nc, bw, wire.RmEnd, endBody(wire.EndDemoted, "exceeded segment lag bound"))
				return nil
			}
			head := s.log.NextLSN()
			// LSN assignment and subscriber publish happen under one WAL
			// lock, so once NextLSN returned head, every record below head
			// is already in this stream's channel or consumed. Empty channel
			// plus a replica that applied everything sent means it holds
			// everything below head — the heartbeat then carries head as a
			// resume point, advancing the replica's cursor across
			// record-free rotations (idle periodic checkpoints).
			resume := wal.LSN(0)
			if len(sub.C()) == 0 {
				s.mu.Lock()
				if !sentAny || st.applied > lastSent {
					resume = head
				}
				s.mu.Unlock()
			}
			body := (&wire.Builder{}).U64(uint64(head)).U64(uint64(resume)).Take()
			if err := s.send(nc, bw, wire.RmHeartbeat, body); err != nil {
				return err
			}
		}
	}
}

// refreshFloor advances the replica's segment floor to the active segment
// once it has applied everything this stream shipped — the floor normally
// tracks the applied LSN, which goes stale on an idle primary that keeps
// rotating (periodic checkpoints with no writes) and would otherwise drift a
// fully caught-up replica into the lag bound. A record appended around a
// concurrent rotation can sit briefly below the refreshed floor before it
// ships; it still arrives through the live subscription, and the worst case
// on a disconnect in that window is a re-bootstrap, never a gap.
func (s *Source) refreshFloor(st *replicaState, lastSent wal.LSN, sentAny bool) {
	active := s.log.NextLSN().Segment()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !st.hasFloor {
		return
	}
	if (!sentAny || st.applied > lastSent) && active > st.floor {
		st.floor = active
	}
}

// errDrainedCatchup aborts the segment catch-up iteration when server drain
// begins; ServeStream turns it into a clean RmEnd(Drain).
var errDrainedCatchup = errors.New("repl: drain during catch-up")

// lagging applies the lag bound to a connected replica: how many segments
// its floor trails the primary's active segment. A stream still working
// through its initial catch-up is exempt — during a bootstrap the floor
// starts at 0 (and on a resume, at the reconnect segment), so on a mature
// primary the raw distance to the active segment exceeds any bound before
// the replica has had a chance to apply a single record, and demoting it
// there would only send it back into another bootstrap, forever. The bound
// engages once the replica's applied cursor passes the last record catch-up
// shipped (immediately, when catch-up shipped nothing).
func (s *Source) lagging(st *replicaState, catchupEnd wal.LSN, catchupSent bool) bool {
	active := s.log.NextLSN().Segment()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !st.hasFloor {
		return false
	}
	if catchupSent && st.applied <= catchupEnd {
		return false
	}
	return active > st.floor && active-st.floor > uint64(s.cfg.MaxSegmentLag)
}

// readReports consumes the replica's report messages until the connection
// ends, folding each into the shared state (applied cursor, segment floor,
// horizon pin).
func (s *Source) readReports(nc net.Conn, br *bufio.Reader, st *replicaState, done chan<- error) {
	for {
		_ = nc.SetReadDeadline(time.Now().Add(s.cfg.StaleAfter))
		op, body, err := wire.ReadStreamMsg(br)
		if err != nil {
			done <- err
			return
		}
		if op != wire.RmReport {
			done <- fmt.Errorf("repl: unexpected stream message 0x%02x from replica %q", op, st.id)
			return
		}
		p := wire.NewParser(body)
		rep := wire.DecodeReplReport(p)
		if err := p.Err(); err != nil {
			done <- err
			return
		}
		s.handleReport(st, rep)
	}
}

// handleReport is where a replica's snapshots become cluster state: its
// oldest open snapshot timestamp is pinned in (or released from) the
// primary's registry, and its applied LSN advances the segment floor.
func (s *Source) handleReport(st *replicaState, rep wire.ReplReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.lastReport = time.Now()
	st.applied = wal.LSN(rep.AppliedLSN)
	st.openSnaps = rep.OpenSnapshots
	if seg := st.applied.Segment(); st.hasFloor && seg > st.floor {
		st.floor = seg
	}
	switch {
	case rep.HasSnapshots:
		min := ts.CID(rep.MinSTS)
		if st.pin != nil && st.pinTS == min {
			return
		}
		// Acquire-then-release so the horizon never transiently clears
		// while the replica still holds snapshots.
		next := s.db.Manager().Registry().Acquire(min)
		if st.pin != nil {
			st.pin.Release()
		}
		st.pin, st.pinTS = next, min
	case st.pin != nil:
		st.pin.Release()
		st.pin = nil
		st.pinTS = 0
	}
}

// send writes one stream message under the configured write deadline —
// this is the partition trigger: once a non-draining peer fills the socket
// buffers, the deadline fires, the stream tears down, and detach releases
// the replica's horizon pin.
func (s *Source) send(nc net.Conn, bw *bufio.Writer, op byte, body []byte) error {
	_ = nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	return wire.WriteStreamMsg(bw, op, body)
}

// sendRecord ships one WAL record: its LSN followed by the raw payload. The
// body is assembled in a pooled builder — this runs once per shipped record,
// the stream's hottest path.
func (s *Source) sendRecord(nc net.Conn, bw *bufio.Writer, lsn wal.LSN, payload []byte) error {
	b := wire.GetBuilder().U64(uint64(lsn)).Raw(payload)
	err := s.send(nc, bw, wire.RmRecord, b.Take())
	wire.PutBuilder(b)
	if err != nil {
		return err
	}
	s.recordsSent.Add(1)
	return nil
}

func endBody(code byte, detail string) []byte {
	return (&wire.Builder{}).U8(code).Str(detail).Take()
}

// PopulateStats splices the primary's replication view into a STATS
// payload (wired as the server's StatsHook).
func (s *Source) PopulateStats(out *wire.Stats) {
	out.ReplRole = "primary"
	out.ReplPrimaryLSN = uint64(s.log.NextLSN())
	out.ReplRecordsSent = s.recordsSent.Load()
	out.ReplDemotions = s.demotions.Load()
	active := s.log.NextLSN().Segment()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.replicas {
		rs := wire.ReplicaStat{
			ID:            st.id,
			Connected:     st.connected,
			Demoted:       st.demoted,
			AppliedLSN:    uint64(st.applied),
			PinnedSTS:     st.pinTS,
			LastReportAge: time.Since(st.lastReport),
		}
		if st.hasFloor {
			rs.FloorSegment = st.floor
			rs.SegmentLag = int64(active) - int64(st.floor)
		}
		out.Replicas = append(out.Replicas, rs)
	}
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].ID < out.Replicas[j].ID })
}
