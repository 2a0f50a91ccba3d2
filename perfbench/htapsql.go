package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/wire"
)

// The htap-sql fact table: factRows rows of (id, amount, region), a hash
// index on id, and the column lane enabled.
const (
	factRows    = 5000
	loadBatch   = 500
	sumQuery    = "SELECT SUM(amount) /* aggregate */ FROM facts"
	regionQuery = "SELECT COUNT(*) /* aggregate */ FROM facts GROUP BY region"
)

// aggEvery is how many committed UPDATEs each aggregate follows. A fixed
// read:write mix keeps the analyst from taking whatever CPU is left over,
// so the writer's share of the two CPUs does not swing with the host's
// scheduling.
const aggEvery = 8

var regions = []string{"north", "south", "east", "west"}

// htapEnv is a hybridgcd -htap with the fact table loaded and migrated.
type htapEnv struct {
	d      *daemon
	load   *client.Client
	mon    *client.Client
	amount []int64 // amount[id-1]: the value last written, as the writer knows it
}

func (e *htapEnv) close() {
	if e.load != nil {
		e.load.Close()
	}
	if e.mon != nil {
		e.mon.Close()
	}
	e.d.stop()
}

// setupHTAP starts hybridgcd -htap, creates and indexes the fact table,
// loads it in batched transactions, enables the lane and waits until the
// migrator has shipped every loaded row into column chunks. The server runs
// without -sync: with one fsync per single-writer UPDATE the write path
// would time the host's fsync, which swung up to threefold between runs
// on the two-CPU VM the benchmark was tuned on, rather than the lane's
// cost. oltp-wire covers the fsync path.
func setupHTAP(cfg *config, n int) (env *htapEnv, err error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	d, err := startDaemon(cfg.bin, filepath.Join(cfg.work, fmt.Sprintf("htap-%d", n)), "-htap")
	if err != nil {
		return nil, err
	}
	env = &htapEnv{d: d, amount: make([]int64, factRows)}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.load, err = client.Dial(client.Config{Addr: d.addr, MaxConns: 2}); err != nil {
		return env, err
	}
	if env.mon, err = client.Dial(client.Config{Addr: d.addr, MaxConns: 1}); err != nil {
		return env, err
	}
	for _, q := range []string{"CREATE TABLE facts (id INT, amount INT, region TEXT)", "CREATE INDEX ON facts (id)"} {
		if _, err := env.load.Exec(q); err != nil {
			return env, fmt.Errorf("%s: %w", q, err)
		}
	}
	for base := 0; base < factRows; base += loadBatch {
		tx, err := env.load.Begin(false)
		if err != nil {
			return env, err
		}
		for i := base; i < min(base+loadBatch, factRows); i++ {
			env.amount[i] = rng.Int63n(1000)
			q := fmt.Sprintf("INSERT INTO facts VALUES (%d, %d, '%s')", i+1, env.amount[i], regions[i%len(regions)])
			if _, err = tx.Exec(q); err != nil {
				tx.Abort()
				return env, fmt.Errorf("load: %w", err)
			}
		}
		if err := tx.Commit(); err != nil {
			return env, fmt.Errorf("load: %w", err)
		}
	}
	if err := env.load.EnableHTAP("facts"); err != nil {
		return env, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := env.mon.Stats()
		if err != nil {
			return env, err
		}
		if len(st.HTAP) == 1 && st.HTAP[0].ChunkRows >= factRows {
			return env, nil
		}
		if time.Now().After(deadline) {
			return env, fmt.Errorf("column lane did not cover the %d loaded rows within 60s: %+v", factRows, st.HTAP)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// sqlWriter runs indexed point UPDATEs of random rows and wakes the
// analyst after every aggEvery of them.
type sqlWriter struct {
	c         *client.Client
	amount    []int64
	rng       *rand.Rand
	kick      chan<- struct{}
	lat       [2]latencies
	attempted int64
	failed    int64
	firstErr  error
}

func (w *sqlWriter) loop(p *phaser, stop <-chan struct{}) {
	for done := 1; ; {
		select {
		case <-stop:
			return
		default:
		}
		id, v := w.rng.Intn(factRows)+1, w.rng.Int63n(1000)
		ph := p.phase.Load()
		t0 := time.Now()
		res, err := w.c.Exec(fmt.Sprintf("UPDATE facts SET amount = %d WHERE id = %d", v, id))
		d := time.Since(t0)
		w.attempted++
		if err == nil && res.Affected != 1 {
			err = fmt.Errorf("UPDATE of id %d affected %d rows", id, res.Affected)
		}
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		w.amount[id-1] = v
		w.lat[ph].add(p, t0, d)
		if done%aggEvery == 0 {
			select {
			case w.kick <- struct{}{}:
			default: // the analyst is still busy; wake-ups coalesce
			}
		}
		done++
	}
}

// analyst alternates the two lane aggregates, one each time the writer
// wakes it, with at most one in flight.
type analyst struct {
	c         *client.Client
	kick      <-chan struct{}
	lat       [2]latencies
	attempted int64
	failed    int64
	firstErr  error
}

func (a *analyst) loop(p *phaser, stop <-chan struct{}) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-a.kick:
		}
		q := sumQuery
		if i%2 == 1 {
			q = regionQuery
		}
		ph := p.phase.Load()
		t0 := time.Now()
		_, err := a.c.Exec(q)
		d := time.Since(t0)
		a.attempted++
		if err != nil {
			a.failed++
			if a.firstErr == nil {
				a.firstErr = err
			}
		} else {
			a.lat[ph].add(p, t0, d)
		}
	}
}

func runHTAPSQL(cfg *config) (*report, error) {
	env, setups, err := setUp(func(i int) (*htapEnv, error) { return setupHTAP(cfg, i) })
	if err != nil {
		return nil, err
	}
	defer env.close()

	kick := make(chan struct{}, 1)
	w := &sqlWriter{c: env.load, amount: env.amount, rng: rand.New(rand.NewSource(cfg.seed + 1)), kick: kick}
	a := &analyst{c: env.load, kick: kick}
	before, err := snapServer(env.mon, env.d)
	if err != nil {
		return nil, err
	}
	smp := startSampler(cfg.seed, serverProbe(env.mon, env.d, cfg.trace))
	p := runTerminals(nil, []func(*phaser, <-chan struct{}){w.loop, a.loop}, cfg.window, cfg.trace)
	if err := smp.finish(); err != nil {
		return nil, err
	}
	after, err := snapServer(env.mon, env.d)
	if err != nil {
		return nil, err
	}
	if err := errors.Join(w.firstErr, a.firstErr); err != nil {
		return nil, fmt.Errorf("htap-sql load failed: %w", err)
	}
	if err := htapGates(env, cfg.gate); err != nil {
		return nil, err
	}

	rep := newReport()
	rep.steal = p.steal
	rep.meta["load"] = map[string]any{
		"closed_loop_clients": 2, "load_goroutines": 2, "load_connections": 2, "monitor_connections": 1,
		"writers": 1, "analysts": 1, "updates_per_aggregate": aggEvery, "fact_rows": factRows,
		"flush_policy": "WAL written, not fsynced (no -sync)", "gc": "hg 50/150/500ms",
	}
	rep.attempted = w.attempted + a.attempted
	rep.failed = w.failed + a.failed
	rep.success()
	txnReport(rep, &w.lat[untraced], cfg.window, setups)
	readReport(rep, &a.lat[untraced], cfg.window)
	writes := int64(w.lat[untraced].n() + w.lat[traced].n())
	serverReport(rep, before, after, smp, writes, false, p)

	window := (p.elapsed[untraced] + p.elapsed[traced]).Seconds()
	rep.layer["trace.overhead_ratio"] = overhead(&w.lat[untraced], &w.lat[traced], p)
	tl, ta := w.lat[traced].d, a.lat[traced].d
	rep.layer["sql.update_p50_us"] = us(tl.pct(50))
	rep.layer["sql.update_p99_us"] = us(tl.pct(99))
	rep.layer["sql.agg_p50_us"] = us(ta.pct(50))
	rep.layer["sql.agg_p99_us"] = us(ta.pct(99))
	// Each UPDATE is one client call; the analyst's calls ride along.
	rep.layer["client.calls_per_txn"] = ratio(float64(len(tl)+len(ta)), float64(len(tl)))
	reqs := float64(after.st.Requests - before.st.Requests)
	svc := ratio(float64(after.serviceTotal()-before.serviceTotal()), reqs)
	call := ratio(float64(tl.sum()+ta.sum()), float64(len(tl)+len(ta)))
	rep.layer["client.self_share"] = ratio(call-svc, call)
	rep.layer["wire.roundtrip_overhead_us"] = (call - svc) / 1e3
	var migrated, passes int64
	for _, h := range after.st.HTAP {
		migrated, passes = migrated+h.MigratedRows, passes+h.Passes
	}
	for _, h := range before.st.HTAP {
		migrated, passes = migrated-h.MigratedRows, passes-h.Passes
	}
	rep.layer["htap.migrated_per_write"] = ratio(float64(migrated), float64(writes))
	rep.layer["htap.passes_per_s"] = float64(passes) / window
	rep.layer["htap.dirty_rows_p50"] = smp.median("htap.dirty")
	rep.layer["htap.delta_rows_p50"] = smp.median("htap.delta")
	rep.layer["htap.lag_cids_p50"] = smp.median("htap.lag")
	return rep, nil
}

// htapGates compares the lane's aggregates with the same aggregates run on
// the row path (inside an explicit transaction) and with the values the
// writer knows it wrote, and checks the row count.
func htapGates(env *htapEnv, gate string) error {
	var wantSum int64
	for _, v := range env.amount {
		wantSum += v
	}
	if gate == "htap-sum" {
		wantSum++
	}
	perRegion := factRows / len(regions)
	if gate == "htap-regions" {
		perRegion++
	}
	wantRegions := fmt.Sprintf("east=%d north=%d south=%d west=%d", perRegion, perRegion, perRegion, perRegion)
	wantCount := int64(factRows)
	if gate == "htap-count" {
		wantCount++
	}
	lane := func(q string) (*client.Result, error) { return env.load.Exec(q) }
	tx, err := env.load.Begin(false)
	if err != nil {
		return err
	}
	defer tx.Abort()
	for _, path := range []struct {
		name string
		exec func(string) (*client.Result, error)
	}{{"lane", lane}, {"row", tx.Exec}} {
		sum, err := scalar(path.exec, sumQuery)
		if err != nil {
			return fmt.Errorf("gate htap %s: %w", path.name, err)
		}
		if sum != wantSum {
			return fmt.Errorf("gate htap-sum: %s path SUM(amount) = %d, writer expects %d", path.name, sum, wantSum)
		}
		count, err := scalar(path.exec, "SELECT COUNT(*) FROM facts")
		if err != nil {
			return fmt.Errorf("gate htap %s: %w", path.name, err)
		}
		if count != wantCount {
			return fmt.Errorf("gate htap-count: %s path COUNT(*) = %d, want %d", path.name, count, wantCount)
		}
		res, err := path.exec(regionQuery)
		if err != nil {
			return fmt.Errorf("gate htap %s: %w", path.name, err)
		}
		if got := groups(res.Rows); got != wantRegions {
			return fmt.Errorf("gate htap-regions: %s path GROUP BY region = %s, want %s", path.name, got, wantRegions)
		}
	}
	return nil
}

// scalar runs a query returning one integer.
func scalar(exec func(string) (*client.Result, error), q string) (int64, error) {
	res, err := exec(q)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].Tag != wire.DatumInt {
		return 0, fmt.Errorf("%s: unexpected result %v", q, res.Rows)
	}
	return res.Rows[0][0].I, nil
}

// groups renders (group, count) rows as sorted "group=count" pairs.
func groups(rows [][]wire.Datum) string {
	var out []string
	for _, r := range rows {
		if len(r) != 2 {
			return fmt.Sprint(rows)
		}
		out = append(out, r[0].String()+"="+r[1].String())
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}
