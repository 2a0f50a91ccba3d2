package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"hybridgc/internal/core"
	"hybridgc/internal/gc"
	"hybridgc/internal/tpcc"
)

// The longcursor reader: FETCH fetchRows rows of the pinned STOCK cursor,
// think, repeat.
const (
	fetchRows  = 10
	fetchThink = time.Millisecond
)

// lcPeriods are the GT/TG/SI periods of the paper's experiments at 1/20
// time scale.
var lcPeriods = gc.Periods{GT: 50 * time.Millisecond, TG: 150 * time.Millisecond, SI: 500 * time.Millisecond}

// lcItems sizes ITEM (and so STOCK, at one warehouse) so that the cursor
// cannot reach the end of STOCK within the window, however fast FETCH is:
// the reader sleeps fetchThink before each FETCH.
func lcItems(window time.Duration) int {
	return int(window/fetchThink)*fetchRows*5/4 + 1000
}

// lcEnv is one loaded in-process engine with its terminal.
type lcEnv struct {
	db   *core.DB
	gcd  *gcDriver // nil when the engine's AutoGC runs the collectors
	term *terminal
}

func (e *lcEnv) close() {
	if e.gcd != nil {
		e.gcd.stop()
	}
	e.db.Close()
}

// setupLongCursor opens the engine and loads one TPC-C warehouse. A traced
// run drives the collectors itself at the same periods, timing each pass.
func setupLongCursor(cfg *config, items int) (*lcEnv, error) {
	db, err := core.Open(core.Config{GC: lcPeriods, LongLivedThreshold: 100 * time.Millisecond, AutoGC: !cfg.trace})
	if err != nil {
		return nil, err
	}
	env := &lcEnv{db: db}
	if cfg.trace {
		env.gcd = startGCDriver(db.GC(), lcPeriods)
	}
	tc := tpccConfig(cfg.seed, 1, items)
	loader, err := tpcc.New(db, tc)
	if err == nil {
		err = loader.Load()
	}
	if err == nil {
		env.term, err = newTerminal(tpcc.LocalBackend(db), tc, 1)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// fetcher is the cursor reader's state.
type fetcher struct {
	cur       *core.Cursor
	lat       [2]latencies
	attempted int64
	failed    int64
	short     int64 // FETCHes that returned fewer rows than asked for
	rows      int64
	traversed int64
	firstErr  error
}

func (f *fetcher) loop(p *phaser, stop <-chan struct{}) {
	think := time.NewTimer(fetchThink)
	defer think.Stop()
	for {
		select {
		case <-stop:
			return
		case <-think.C:
		}
		ph := p.phase.Load()
		t0 := time.Now()
		rows, st, err := f.cur.Fetch(fetchRows)
		d := time.Since(t0)
		f.attempted++
		if err != nil {
			f.failed++
			if f.firstErr == nil {
				f.firstErr = err
			}
		} else {
			f.lat[ph].add(p, t0, d)
			f.rows += int64(len(rows))
			f.traversed += st.Traversed
			if len(rows) != fetchRows {
				f.short++
			}
		}
		think.Reset(fetchThink)
	}
}

func runLongCursor(cfg *config) (*report, error) {
	items := lcItems(cfg.window)
	env, setups, err := setUp(func(int) (*lcEnv, error) { return setupLongCursor(cfg, items) })
	if err != nil {
		return nil, err
	}
	defer env.close()
	db := env.db
	terms := []*terminal{env.term}

	cur, err := db.OpenCursor(db.TableID(tpcc.TableStock))
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	f := &fetcher{cur: cur}

	self := os.Getpid()
	before := db.Stats()
	cpu0, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	rss0, err := procRSS(self)
	if err != nil {
		return nil, err
	}
	h := db.GC()
	gc0 := [3]int64{h.ReclaimedByGT(), h.ReclaimedByTG(), h.ReclaimedBySI()}
	if env.gcd != nil {
		env.gcd.record(true)
	}
	smp := startSampler(cfg.seed, engineProbe(db, self, cfg.trace))
	p := runTerminals(terms, []func(*phaser, <-chan struct{}){f.loop}, cfg.window, cfg.trace)
	if err := smp.finish(); err != nil {
		return nil, err
	}
	if env.gcd != nil {
		env.gcd.record(false)
	}
	after := db.Stats()
	cpu1, err := procCPU(self)
	if err != nil {
		return nil, err
	}
	rss1, err := procRSS(self)
	if err != nil {
		return nil, err
	}

	// Gates: the cursor held its snapshot and never ran dry, every FETCH
	// returned a full batch, and the TPC-C state is consistent.
	if f.firstErr != nil {
		return nil, fmt.Errorf("fetch failed: %w", f.firstErr)
	}
	short := f.short
	if cfg.gate == "fetch" {
		short++
	}
	if short != 0 || cur.Exhausted() {
		return nil, fmt.Errorf("gate fetch: %d of %d FETCHes came back short (exhausted=%v, %d STOCK rows)",
			short, f.attempted, cur.Exhausted(), items)
	}
	if err := tpccGates(tpcc.LocalBackend(db), terms, cfg, 1, items); err != nil {
		return nil, err
	}

	rep := newReport()
	rep.steal = p.steal
	rep.meta["load"] = map[string]any{
		"closed_loop_clients": 2, "load_goroutines": 2, "load_connections": 0,
		"terminals": 1, "cursor_readers": 1, "warehouses": 1, "stock_rows": items,
		"fetch_rows": fetchRows, "fetch_think_ms": ms(fetchThink),
		"flush_policy": "none (in-process, no persistence)", "gc": "hg 50/150/500ms",
	}
	rep.attempted, rep.failed = f.attempted, f.failed
	tpccReport(rep, terms, p, cfg.window, setups)
	window := (p.elapsed[untraced] + p.elapsed[traced]).Seconds()
	writes := float64(newOrders(terms))
	readReport(rep, &f.lat[untraced], cfg.window)
	created := float64(after.VersionsCreated - before.VersionsCreated)
	rep.e2e["version_retention_s"] = ratio(smp.mean("live"), created/window)
	rep.e2e["cpu_ms_per_txn"] = ratio(ms(cpu1-cpu0), writes)
	rep.e2e["mem_peak_mb"] = smp.max("rss") / (1 << 20)
	rep.meta["versions_live_samples"] = len(smp.series["live"])
	rep.meta["cpu_process"] = "the benchmark process itself: engine, terminal and reader"

	tr := merged(terms, traced)
	rep.layer["core.calls_per_txn"] = ratio(float64(tr.calls), float64(tr.byType[tpcc.TxnNewOrder].n()))
	for _, c := range []struct {
		name string
		op   int
	}{{"get", opGet}, {"update", opUpdate}, {"insert", opInsert}} {
		rep.layer["core."+c.name+"_p50_us"] = us(callDurations(terms, c.op).pct(50))
	}
	commits := callDurations(terms, opCommit)
	rep.layer["txn.commit_p50_us"] = us(commits.pct(50))
	rep.layer["txn.commit_p99_us"] = us(commits.pct(99))
	rep.layer["txn.txns_per_group"] = ratio(float64(after.Txn.TxnsCommitted-before.Txn.TxnsCommitted),
		float64(after.Txn.GroupsCommitted-before.Txn.GroupsCommitted))
	rep.layer["mvcc.versions_live_p50"] = smp.median("live")
	rep.layer["mvcc.versions_created_per_txn"] = ratio(created, writes)
	rep.layer["mvcc.chains_p50"] = smp.median("chains")
	rep.layer["mvcc.collision_ratio_p50"] = smp.median("collision")
	rep.layer["mvcc.traversed_per_fetched_row"] = ratio(float64(f.traversed), float64(f.rows))
	gc1 := [3]int64{h.ReclaimedByGT(), h.ReclaimedByTG(), h.ReclaimedBySI()}
	for i, c := range []string{"gt", "tg", "si"} {
		rep.layer["gc."+c+".reclaimed_per_s"] = float64(gc1[i]-gc0[i]) / window
	}
	if env.gcd != nil {
		env.gcd.report(rep, window)
	}
	rep.layer["sts.active_snapshots_p50"] = smp.median("snapshots")
	rep.layer["sts.horizon_lag_cids_p50"] = smp.median("cidrange")
	rep.layer["mem.rss_growth_kb_per_txn"] = ratio(float64(rss1-rss0)/1024, writes)
	return rep, nil
}

// engineProbe samples an in-process engine: live versions and this
// process's RSS, and with full set the snapshot and hash-table gauges
// (which cost a scan of the hash buckets).
func engineProbe(db *core.DB, pid int, full bool) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		rss, err := procRSS(pid)
		if err != nil {
			return nil, err
		}
		out := map[string]float64{"live": float64(db.Space().Live()), "rss": float64(rss)}
		if full {
			st := db.Stats()
			out["snapshots"] = float64(st.ActiveSnapshots)
			out["cidrange"] = float64(st.ActiveCIDRange)
			out["chains"] = float64(st.Hash.Chains)
			out["collision"] = st.Hash.CollisionRatio
		}
		return out, nil
	}
}

// gcDriver invokes the three collectors at their periods, as the engine's
// AutoGC does, and times every call.
type gcDriver struct {
	quit chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	on     bool
	passes [3]durations
	busy   time.Duration
	si     gc.RunStats // SI's own work, summed over the recorded passes
}

func startGCDriver(h *gc.Hybrid, periods gc.Periods) *gcDriver {
	g := &gcDriver{quit: make(chan struct{})}
	for i, c := range []struct {
		period time.Duration
		run    func() gc.RunStats
	}{{periods.GT, h.RunGT}, {periods.TG, h.RunTG}, {periods.SI, h.RunSI}} {
		g.wg.Add(1)
		go func(i int, period time.Duration, run func() gc.RunStats) {
			defer g.wg.Done()
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-g.quit:
					return
				case <-tick.C:
				}
				t0 := time.Now()
				st := run()
				g.pass(i, time.Since(t0), st)
			}
		}(i, c.period, c.run)
	}
	return g
}

func (g *gcDriver) pass(i int, d time.Duration, st gc.RunStats) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.on {
		return
	}
	g.passes[i] = append(g.passes[i], d)
	g.busy += d
	if i == 2 {
		g.si.Versions += st.Versions
		g.si.ChainsScanned += st.ChainsScanned
		g.si.Duration += st.Duration
	}
}

func (g *gcDriver) record(on bool) {
	g.mu.Lock()
	g.on = on
	g.mu.Unlock()
}

func (g *gcDriver) stop() {
	close(g.quit)
	g.wg.Wait()
}

// report fills the collector pass metrics. Pass times are whole calls, so
// TG's and SI's include the GT pass §4.4 runs first; ns_per_reclaimed and
// reclaimed_per_chain count SI's own pass only.
func (g *gcDriver) report(rep *report, window float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, c := range []string{"gt", "tg", "si"} {
		rep.layer["gc."+c+".pass_p50_us"] = us(g.passes[i].pct(50))
	}
	rep.layer["gc.si.pass_max_us"] = us(g.passes[2].pct(100))
	rep.layer["gc.si.ns_per_reclaimed"] = ratio(float64(g.si.Duration), float64(g.si.Versions))
	rep.layer["gc.si.reclaimed_per_chain"] = ratio(float64(g.si.Versions), float64(g.si.ChainsScanned))
	rep.layer["gc.busy_share"] = ratio(g.busy.Seconds(), window)
}
