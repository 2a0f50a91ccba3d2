package main

import (
	"fmt"
	"path/filepath"

	"hybridgc/internal/client"
	"hybridgc/internal/core"
	"hybridgc/internal/tpcc"
)

// oltpWarehouses is the oltp-wire scale: two warehouses, one terminal on
// each (at most nproc=2 load goroutines and connections).
const oltpWarehouses = 2

// wireTPCC is a loaded hybridgcd with its load and monitor clients.
type wireTPCC struct {
	d     *daemon
	load  *client.Client
	mon   *client.Client
	terms []*terminal
}

func (e *wireTPCC) close() {
	if e.load != nil {
		e.load.Close()
	}
	if e.mon != nil {
		e.mon.Close()
	}
	e.d.stop()
}

// setupWireTPCC loads TPC-C into a fresh data directory, starts hybridgcd
// on it and attaches one terminal per warehouse over the wire.
func setupWireTPCC(cfg *config, n int) (env *wireTPCC, err error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("oltp-%d", n))
	tc := tpccConfig(cfg.seed, oltpWarehouses, 200)
	if err := preload(dir, tc); err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.bin, dir, "-sync", "-gc", "hg")
	if err != nil {
		return nil, err
	}
	env = &wireTPCC{d: d}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	if env.load, err = client.Dial(client.Config{Addr: d.addr, MaxConns: oltpWarehouses}); err != nil {
		return env, err
	}
	if env.mon, err = client.Dial(client.Config{Addr: d.addr, MaxConns: 1}); err != nil {
		return env, err
	}
	be := tpcc.RemoteBackend(env.load)
	for w := 1; w <= oltpWarehouses; w++ {
		t, err := newTerminal(be, tc, w)
		if err != nil {
			return env, err
		}
		env.terms = append(env.terms, t)
	}
	return env, nil
}

// preload writes the TPC-C tables into dir in process and checkpoints
// them, so the server recovers them on start. Loading through the server
// instead would fsync each of the loader's ~3000 one-row transactions and
// make setup_s time the host's disk.
func preload(dir string, tc tpcc.Config) error {
	db, err := core.Open(core.Config{Persistence: &core.Persistence{Dir: dir}})
	if err != nil {
		return err
	}
	defer db.Close()
	loader, err := tpcc.New(db, tc)
	if err == nil {
		err = loader.Load()
	}
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

func runOLTPWire(cfg *config) (*report, error) {
	env, setups, err := setUp(func(i int) (*wireTPCC, error) { return setupWireTPCC(cfg, i) })
	if err != nil {
		return nil, err
	}
	defer env.close()

	before, err := snapServer(env.mon, env.d)
	if err != nil {
		return nil, err
	}
	smp := startSampler(cfg.seed, serverProbe(env.mon, env.d, cfg.trace))
	p := runTerminals(env.terms, nil, cfg.window, cfg.trace)
	if err := smp.finish(); err != nil {
		return nil, err
	}
	after, err := snapServer(env.mon, env.d)
	if err != nil {
		return nil, err
	}
	if err := tpccGates(tpcc.RemoteBackend(env.load), env.terms, cfg, oltpWarehouses, 200); err != nil {
		return nil, err
	}

	rep := newReport()
	rep.steal = p.steal
	rep.meta["load"] = map[string]any{
		"closed_loop_clients": len(env.terms), "load_goroutines": len(env.terms),
		"load_connections": oltpWarehouses, "monitor_connections": 1,
		"warehouses": oltpWarehouses, "remote_clauses": false,
		"flush_policy": "hybridgcd -sync: one fsync per commit group", "gc": "hg 50/150/500ms",
	}
	tpccReport(rep, env.terms, p, cfg.window, setups)
	// oltp-wire's reads are the StockLevel profile: the mix's reporting
	// query, some 200 round trips each.
	readReport(rep, &merged(env.terms, untraced).byType[tpcc.TxnStockLevel], cfg.window)
	serverReport(rep, before, after, smp, newOrders(env.terms), true, p)
	if cfg.trace {
		clientLayer(rep, env.terms, before, after, p)
	}
	return rep, nil
}

// clientLayer fills the client-side spans of oltp-wire and the breakdown
// of a transaction's time into driver logic, round trips, server service
// and commit.
func clientLayer(rep *report, terms []*terminal, before, after *serverSnap, p *phaser) {
	tr := merged(terms, traced)
	rep.layer["client.calls_per_txn"] = ratio(float64(tr.calls), float64(tr.byType[tpcc.TxnNewOrder].n()))
	for _, c := range []struct {
		name string
		op   int
	}{{"get", opGet}, {"update", opUpdate}, {"insert", opInsert}, {"commit", opCommit}} {
		rep.layer["client."+c.name+"_p50_us"] = us(callDurations(terms, c.op).pct(50))
	}
	commits := callDurations(terms, opCommit)
	rep.layer["client.commit_p99_us"] = us(commits.pct(99))

	// Server service per request, from STATS, against the client's mean
	// call: their difference is the round trip's own cost.
	reqs := float64(after.st.Requests - before.st.Requests)
	svc := ratio(float64(after.serviceTotal()-before.serviceTotal()), reqs)
	call := ratio(float64(tr.callTime), float64(tr.calls))
	rtt := call - svc
	rep.layer["client.self_share"] = ratio(rtt, call)
	rep.layer["wire.roundtrip_overhead_us"] = rtt / 1e3

	// Shares of the traced profiles' wall time. Commit calls count whole;
	// the other calls split into server service and round-trip overhead.
	run := float64(tr.runTime)
	commit := float64(commits.sum())
	nonCommit := float64(tr.callTime) - commit
	nNonCommit := float64(tr.calls) - float64(len(commits))
	rep.layer["breakdown.driver_share"] = ratio(run-float64(tr.callTime), run)
	rep.layer["breakdown.commit_share"] = ratio(commit, run)
	rep.layer["breakdown.roundtrip_share"] = ratio(nNonCommit*rtt, run)
	rep.layer["breakdown.service_share"] = ratio(nonCommit-nNonCommit*rtt, run)
}
