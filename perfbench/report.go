package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the engine sees, printed by every
// untraced run of every workload. BENCHMARK.json lists the same set.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"txn_per_s", "1/s"},
	{"txn_p50_ms", "ms"},
	{"txn_p99_ms", "ms"},
	{"read_per_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p95_ms", "ms"},
	{"version_retention_s", "s"},
	{"cpu_ms_per_txn", "ms"},
	{"mem_peak_mb", "MB"},
	{"success_ratio", "ratio"},
}

// perLayer are the single-layer metrics printed by traced runs. A layer
// that is not on a workload's path reports 0 there (METRICS.md lists which
// workload measures what).
var perLayer = []spec{
	{"client.calls_per_txn", "count"},
	{"client.get_p50_us", "us"},
	{"client.update_p50_us", "us"},
	{"client.insert_p50_us", "us"},
	{"client.commit_p50_us", "us"},
	{"client.commit_p99_us", "us"},
	{"client.self_share", "ratio"},
	{"server.requests_per_txn", "count"},
	{"server.service_mean_us", "us"},
	{"server.service_p99_us", "us"},
	{"wire.roundtrip_overhead_us", "us"},
	{"wire.bytes_per_txn", "B"},
	{"sql.update_p50_us", "us"},
	{"sql.update_p99_us", "us"},
	{"sql.agg_p50_us", "us"},
	{"sql.agg_p99_us", "us"},
	{"core.calls_per_txn", "count"},
	{"core.get_p50_us", "us"},
	{"core.update_p50_us", "us"},
	{"core.insert_p50_us", "us"},
	{"txn.commit_p50_us", "us"},
	{"txn.commit_p99_us", "us"},
	{"txn.txns_per_group", "count"},
	{"wal.bytes_per_txn", "B"},
	{"wal.fsyncs_per_txn", "count"},
	{"mvcc.versions_live_p50", "count"},
	{"mvcc.versions_created_per_txn", "count"},
	{"mvcc.chains_p50", "count"},
	{"mvcc.collision_ratio_p50", "ratio"},
	{"mvcc.traversed_per_fetched_row", "ratio"},
	{"gc.gt.reclaimed_per_s", "1/s"},
	{"gc.tg.reclaimed_per_s", "1/s"},
	{"gc.si.reclaimed_per_s", "1/s"},
	{"gc.gt.pass_p50_us", "us"},
	{"gc.tg.pass_p50_us", "us"},
	{"gc.si.pass_p50_us", "us"},
	{"gc.si.pass_max_us", "us"},
	{"gc.si.ns_per_reclaimed", "ns"},
	{"gc.si.reclaimed_per_chain", "ratio"},
	{"gc.busy_share", "ratio"},
	{"sts.active_snapshots_p50", "count"},
	{"sts.horizon_lag_cids_p50", "count"},
	{"htap.migrated_per_write", "ratio"},
	{"htap.passes_per_s", "1/s"},
	{"htap.dirty_rows_p50", "count"},
	{"htap.delta_rows_p50", "count"},
	{"htap.lag_cids_p50", "count"},
	{"tpcc.payment_p99_ms", "ms"},
	{"mem.rss_growth_kb_per_txn", "KB"},
	{"breakdown.driver_share", "ratio"},
	{"breakdown.roundtrip_share", "ratio"},
	{"breakdown.service_share", "ratio"},
	{"breakdown.commit_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// report is what one workload run measured.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the measured window.
	steal float64
	// meta describes the run: load shape, flush policy, sample counts.
	meta map[string]any
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, meta: map[string]any{}}
}

// metric is one value as printed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result selects the end-to-end metrics, or the per-layer ones when
// traced, checks that every listed metric was measured, and that each value
// is a finite number.
func (r *report) result(trace bool) (*result, error) {
	specs, vals := endToEnd, r.e2e
	if trace {
		specs, vals = perLayer, r.layer
	}
	out := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok && !trace {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if out.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return out, nil
}

// txnReport fills set-up time and the unit transactions' rate and latency.
func txnReport(rep *report, l *latencies, window time.Duration, setups []float64) {
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["txn_per_s"] = l.rate(window)
	rep.e2e["txn_p50_ms"] = ms(l.d.pct(50))
	rep.e2e["txn_p99_ms"] = ms(l.pct(window, 99))
	rep.meta["setup_s"] = setups
	rep.meta["txn_samples"] = l.n()
	rep.meta["txn_per_s_by_slot"] = l.rates(window)
}

// readReport fills the reads' rate and latency.
func readReport(rep *report, l *latencies, window time.Duration) {
	rep.e2e["read_per_s"] = l.rate(window)
	rep.e2e["read_p50_ms"] = ms(l.d.pct(50))
	rep.e2e["read_p95_ms"] = ms(l.pct(window, 95))
	rep.meta["read_samples"] = l.n()
}

// overhead is the traced phase's rate over the untraced phase's, 0 when
// the run was not traced.
func overhead(u, t *latencies, p *phaser) float64 {
	if p.elapsed[traced] == 0 {
		return 0
	}
	return ratio(float64(t.n())/p.elapsed[traced].Seconds(), float64(u.n())/p.elapsed[untraced].Seconds())
}

// success sets success_ratio from the attempted and failed counts.
func (r *report) success() {
	r.e2e["success_ratio"] = ratio(float64(r.attempted-r.failed), float64(r.attempted))
}

// printJSON writes v as one line of JSON to standard output.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", b)
	return err
}
