package main

import (
	"fmt"
	"time"

	"hybridgc/internal/client"
	"hybridgc/internal/wire"
)

// serverSnap is what the benchmark reads from a running hybridgcd at the
// edges of the measured window: STATS, the m_gc view, and the process's
// CPU time, memory and data-directory size.
type serverSnap struct {
	st      wire.Stats
	gc      map[string]int64 // collector -> versions reclaimed
	cpu     time.Duration
	rss     int64
	walSize int64
}

// serviceTotal is the server's summed request service time: its latency
// mean is exact over every request, so mean × count recovers the sum.
func (s *serverSnap) serviceTotal() time.Duration {
	return s.st.LatMean * time.Duration(s.st.Requests)
}

// snapServer reads one serverSnap through the monitor connection.
func snapServer(mon *client.Client, d *daemon) (*serverSnap, error) {
	var s serverSnap
	var err error
	if s.st, err = mon.Stats(); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	if s.gc, err = viewInts(mon, "SELECT collector, reclaimed FROM m_gc"); err != nil {
		return nil, err
	}
	if s.cpu, err = procCPU(d.pid()); err != nil {
		return nil, err
	}
	if s.rss, err = procRSS(d.pid()); err != nil {
		return nil, err
	}
	if s.walSize, err = dirBytes(d.dir); err != nil {
		return nil, err
	}
	return &s, nil
}

// viewInts runs a two-column (name, integer) query and returns it as a map.
func viewInts(c *client.Client, q string) (map[string]int64, error) {
	res, err := c.Exec(q)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q, err)
	}
	out := make(map[string]int64, len(res.Rows))
	for _, r := range res.Rows {
		if len(r) != 2 || r[1].Tag != wire.DatumInt {
			return nil, fmt.Errorf("%s: unexpected row %v", q, r)
		}
		out[r[0].S] = r[1].I
	}
	return out, nil
}

// serverProbe samples the gauges of a running server: live versions,
// snapshots and horizon lag from STATS, the process's RSS, and with full
// set the hash-table shape from m_version_space and the column lanes.
func serverProbe(mon *client.Client, d *daemon, full bool) func() (map[string]float64, error) {
	return func() (map[string]float64, error) {
		st, err := mon.Stats()
		if err != nil {
			return nil, err
		}
		rss, err := procRSS(d.pid())
		if err != nil {
			return nil, err
		}
		out := map[string]float64{
			"live":      float64(st.VersionsLive),
			"snapshots": float64(st.ActiveSnapshots),
			"cidrange":  float64(st.ActiveCIDRange),
			"rss":       float64(rss),
		}
		for _, h := range st.HTAP {
			out["htap.dirty"] += float64(h.DirtyRows)
			out["htap.delta"] += float64(h.DeltaRows)
			out["htap.lag"] = max(out["htap.lag"], float64(h.Lag))
		}
		if full {
			vs, err := viewInts(mon, "SELECT metric, value FROM m_version_space")
			if err != nil {
				return nil, err
			}
			out["chains"] = float64(vs["hash_chains"])
			out["collision"] = float64(vs["hash_collision_ratio_x100"]) / 100
		}
		return out, nil
	}
}

// serverReport fills the metrics read from the engine process between two
// snapshots: CPU, memory, version retention, WAL and commit grouping, GC
// and snapshot gauges. txns is the unit-transaction count; synced says the
// server fsyncs once per commit group (-sync).
func serverReport(rep *report, before, after *serverSnap, smp *sampler, txns int64, synced bool, p *phaser) {
	window := (p.elapsed[untraced] + p.elapsed[traced]).Seconds()
	n := float64(txns)
	created := float64(after.st.VersionsCreated - before.st.VersionsCreated)
	// By Little's law, mean live versions ÷ versions created per second is
	// the time a version stays in the version space.
	rep.e2e["version_retention_s"] = ratio(smp.mean("live"), created/window)
	rep.e2e["cpu_ms_per_txn"] = ratio(ms(after.cpu-before.cpu), n)
	rep.e2e["mem_peak_mb"] = smp.max("rss") / (1 << 20)
	rep.meta["versions_live_samples"] = len(smp.series["live"])

	groups := float64(after.st.GroupsCommitted - before.st.GroupsCommitted)
	rep.layer["txn.txns_per_group"] = ratio(float64(after.st.TxnsCommitted-before.st.TxnsCommitted), groups)
	rep.layer["wal.bytes_per_txn"] = ratio(float64(after.walSize-before.walSize), n)
	if synced {
		rep.layer["wal.fsyncs_per_txn"] = ratio(groups, n)
	}
	rep.layer["mvcc.versions_live_p50"] = smp.median("live")
	rep.layer["mvcc.versions_created_per_txn"] = ratio(created, n)
	rep.layer["mvcc.chains_p50"] = smp.median("chains")
	rep.layer["mvcc.collision_ratio_p50"] = smp.median("collision")
	for _, c := range []struct{ view, name string }{{"GT", "gt"}, {"TG", "tg"}, {"SI", "si"}} {
		rep.layer["gc."+c.name+".reclaimed_per_s"] = float64(after.gc[c.view]-before.gc[c.view]) / window
	}
	rep.layer["sts.active_snapshots_p50"] = smp.median("snapshots")
	rep.layer["sts.horizon_lag_cids_p50"] = smp.median("cidrange")
	rep.layer["mem.rss_growth_kb_per_txn"] = ratio(float64(after.rss-before.rss)/1024, n)

	reqs := float64(after.st.Requests - before.st.Requests)
	service := after.serviceTotal() - before.serviceTotal()
	rep.layer["server.requests_per_txn"] = ratio(reqs, n)
	rep.layer["server.service_mean_us"] = ratio(us(service), reqs)
	rep.layer["server.service_p99_us"] = us(after.st.LatP99)
	rep.layer["wire.bytes_per_txn"] = ratio(float64(after.st.BytesIn+after.st.BytesOut-before.st.BytesIn-before.st.BytesOut), n)
}
