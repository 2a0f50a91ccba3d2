package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hybridgc/internal/tpcc"
	"hybridgc/internal/ts"
)

// Measurement phases. With --trace 1 a run alternates short blocks of the
// two, so the traced spans and the untraced throughput they are compared
// with see the same data and the same moment of the run.
const (
	untraced = 0
	traced   = 1
)

// traceBlock is the length of one phase block in a traced run.
const traceBlock = 250 * time.Millisecond

// phaser runs a measured window and says which phase is current.
type phaser struct {
	phase   atomic.Int32
	start   time.Time
	elapsed [2]time.Duration
	// steal is the share of the machine's CPU time the hypervisor took
	// during the window (recorded in the meta line).
	steal float64
}

// run lets the load run for window, alternating phases when trace is set,
// and records how long each phase lasted.
func (p *phaser) run(window time.Duration, trace bool) {
	if !trace {
		time.Sleep(window - time.Since(p.start))
		p.elapsed[untraced] = time.Since(p.start)
		return
	}
	for last := p.start; time.Since(p.start) < window; {
		time.Sleep(min(traceBlock, window-time.Since(p.start)))
		now := time.Now()
		ph := p.phase.Load()
		p.elapsed[ph] += now.Sub(last)
		p.phase.Store(1 - ph)
		last = now
	}
}

// profileLat holds the latencies of committed TPC-C profiles in one phase.
type profileLat struct {
	byType [len(tpcc.WorkerStats{}.Committed)]latencies
	// runTime and callTime sum Worker.RunOne wall time and the store calls
	// inside it (traced phase only); their difference is the driver's own
	// time.
	runTime  time.Duration
	callTime time.Duration
	calls    int64
}

// terminal is one closed-loop TPC-C terminal: a worker on its home
// warehouse whose driver reaches the engine through a tracedBackend.
type terminal struct {
	wk  *tpcc.Worker
	rec *recorder

	attempted, failed int64
	firstErr          error
	lat               [2]profileLat
}

// newTerminal attaches a driver for warehouse w through a traced backend.
// Each terminal gets its own driver so its spans are its own.
func newTerminal(be tpcc.Backend, cfg tpcc.Config, w int) (*terminal, error) {
	rec := &recorder{}
	d, err := tpcc.AttachBackend(&tracedBackend{Backend: be, rec: rec}, cfg)
	if err != nil {
		return nil, fmt.Errorf("attach terminal %d: %w", w, err)
	}
	return &terminal{wk: d.NewWorker(w), rec: rec}, nil
}

// loop runs profiles back to back until stop closes.
func (t *terminal) loop(p *phaser, stop <-chan struct{}) {
	st := &t.wk.Stats
	for {
		select {
		case <-stop:
			return
		default:
		}
		ph := p.phase.Load()
		t.rec.on = ph == traced
		t.rec.startProfile()
		var before [3][len(st.Committed)]int64
		for i := range st.Committed {
			before[0][i] = st.Committed[i].Load()
			before[1][i] = st.Aborted[i].Load()
			before[2][i] = st.Errors[i].Load()
		}
		t0 := time.Now()
		err := t.wk.RunOne()
		d := time.Since(t0)
		t.attempted++
		for i := range st.Committed {
			switch {
			case st.Committed[i].Load() != before[0][i]:
				t.lat[ph].byType[i].add(p, t0, d)
			case st.Aborted[i].Load() != before[1][i] && t.rec.transient:
				t.failed++ // retries exhausted; a clean rollback is a success
			case st.Errors[i].Load() != before[2][i]:
				t.failed++
				if t.firstErr == nil {
					t.firstErr = fmt.Errorf("%s: %w", tpcc.TxnType(i), err)
				}
			}
		}
		if ph == traced {
			l := &t.lat[ph]
			l.runTime += d
			l.callTime += t.rec.txnCallTime
			l.calls += int64(t.rec.txnCalls)
		}
	}
}

// runTerminals drives the terminals for window, one goroutine each, plus
// extra load goroutines (the cursor reader, the analyst) that follow the
// same stop channel.
func runTerminals(terms []*terminal, extra []func(p *phaser, stop <-chan struct{}), window time.Duration, trace bool) *phaser {
	p := &phaser{start: time.Now()}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, t := range terms {
		wg.Add(1)
		go func(t *terminal) {
			defer wg.Done()
			t.loop(p, stop)
		}(t)
	}
	for _, f := range extra {
		wg.Add(1)
		go func(f func(*phaser, <-chan struct{})) {
			defer wg.Done()
			f(p, stop)
		}(f)
	}
	total0, steal0, err0 := hostTicks()
	p.run(window, trace)
	total1, steal1, err1 := hostTicks()
	close(stop)
	wg.Wait()
	if err0 == nil && err1 == nil {
		p.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	return p
}

// merged sums the terminals' per-phase latencies.
func merged(terms []*terminal, ph int) *profileLat {
	out := &profileLat{}
	for _, t := range terms {
		l := &t.lat[ph]
		for i := range out.byType {
			out.byType[i].merge(&l.byType[i])
		}
		out.runTime += l.runTime
		out.callTime += l.callTime
		out.calls += l.calls
	}
	return out
}

// callDurations merges the terminals' traced spans for one operation.
func callDurations(terms []*terminal, op int) durations {
	var out durations
	for _, t := range terms {
		out = append(out, t.rec.calls[op]...)
	}
	return out
}

// tpccConfig is the TPC-C scale of the benchmark's TPC-C workloads.
func tpccConfig(seed int64, warehouses, items int) tpcc.Config {
	return tpcc.Config{Warehouses: warehouses, Districts: 10, CustomersPerDistrict: 60, Items: items, Seed: seed}
}

// newOrders is the number of committed NewOrders in both phases.
func newOrders(terms []*terminal) int64 {
	return int64(merged(terms, untraced).byType[tpcc.TxnNewOrder].n() + merged(terms, traced).byType[tpcc.TxnNewOrder].n())
}

// tpccReport fills the TPC-C metrics both TPC-C workloads share. As in
// TPC-C's tpmC, the unit transaction is the committed NewOrder: txn_per_s
// counts NewOrders and the other profiles' work is charged to them.
func tpccReport(rep *report, terms []*terminal, p *phaser, window time.Duration, setups []float64) {
	for _, t := range terms {
		rep.attempted += t.attempted
		rep.failed += t.failed
	}
	u, tr := merged(terms, untraced), merged(terms, traced)
	txnReport(rep, &u.byType[tpcc.TxnNewOrder], window, setups)
	rep.layer["tpcc.payment_p99_ms"] = ms(u.byType[tpcc.TxnPayment].pct(window, 99))
	rep.layer["trace.overhead_ratio"] = overhead(&u.byType[tpcc.TxnNewOrder], &tr.byType[tpcc.TxnNewOrder], p)
	rep.success()
}

// tpccGates are the TPC-C workloads' correctness gates, run after the load
// stops: the TPC-C consistency conditions (tpcc.Driver.Check) over a driver
// rebuilt from the database, and the ORDERS row count against the
// NewOrders the terminals saw commit.
func tpccGates(be tpcc.Backend, terms []*terminal, cfg *config, warehouses, items int) error {
	for _, t := range terms {
		if t.firstErr != nil {
			return fmt.Errorf("terminal failed: %w", t.firstErr)
		}
	}
	d, err := tpcc.AttachBackend(be, tpccConfig(cfg.seed, warehouses, items))
	if err != nil {
		return fmt.Errorf("gate: attach: %w", err)
	}
	if cfg.gate == "tpcc-check" {
		if err := corruptWarehouse(be, d); err != nil {
			return err
		}
	}
	if err := d.Check(); err != nil {
		return fmt.Errorf("gate tpcc-check: %w", err)
	}
	var want int64
	for _, t := range terms {
		want += t.wk.Stats.Committed[tpcc.TxnNewOrder].Load()
	}
	if cfg.gate == "orders" {
		want++
	}
	got, err := countRows(be, d.TableIDsByName()[tpcc.TableOrders])
	if err != nil {
		return fmt.Errorf("gate orders: %w", err)
	}
	if got != want {
		return fmt.Errorf("gate orders: ORDERS holds %d rows, terminals committed %d NewOrders", got, want)
	}
	return nil
}

// countRows counts a table's rows under one snapshot.
func countRows(be tpcc.Backend, tid ts.TableID) (int64, error) {
	tx, err := be.Begin(true)
	if err != nil {
		return 0, err
	}
	defer tx.Abort()
	var n int64
	err = tx.Scan(tid, func(ts.RID, []byte) bool { n++; return true })
	return n, err
}

// corruptWarehouse raises warehouse 1's year-to-date total so the TPC-C
// consistency check's first condition (W_YTD = Σ D_YTD) must fail.
func corruptWarehouse(be tpcc.Backend, d *tpcc.Driver) error {
	tid := d.TableIDsByName()[tpcc.TableWarehouse]
	tx, err := be.Begin(false)
	if err != nil {
		return err
	}
	img, err := tx.Get(tid, 1)
	if err == nil {
		var w tpcc.Warehouse
		if w, err = tpcc.DecodeWarehouse(img); err == nil {
			w.YTD++
			err = tx.Update(tid, 1, w.Encode())
		}
	}
	if err != nil {
		tx.Abort()
		return fmt.Errorf("corrupting warehouse 1: %w", err)
	}
	return tx.Commit()
}
