// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload against the engine built from this tree, checks the results,
// and prints one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, from a run that alternates traced and untraced
// blocks. Workloads:
//
//	oltp-wire   TPC-C over loopback against a hybridgcd child (-sync -gc hg)
//	longcursor  in-process TPC-C beside a cursor pinning STOCK (§5.2/§5.4)
//	htap-sql    SQL point UPDATEs beside lane aggregates against hybridgcd -htap
//
// Run it through run.sh, which builds hybridgcd and this command first:
//
//	bash perfbench/run.sh --workload oltp-wire --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	bin      string // hybridgcd binary
	work     string // directory for the servers' data directories
	// gate, when set, replaces a correctness gate's expected value with a
	// wrong one so tests can prove the gate trips.
	gate string
}

// setupRuns is how many times a run sets its workload up: setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 5

// setUp sets a workload up setupRuns times, closing every set-up but the
// last, and returns the last with each set-up's duration in seconds.
func setUp[E interface{ close() }](setup func(i int) (E, error)) (E, []float64, error) {
	var env E
	var secs []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			env.close()
			runtime.GC() // drop the previous set-up before timing the next
		}
		t0 := time.Now()
		var err error
		if env, err = setup(i); err != nil {
			return env, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return env, secs, nil
}

var workloads = map[string]func(*config) (*report, error){
	"oltp-wire":  runOLTPWire,
	"longcursor": runLongCursor,
	"htap-sql":   runHTAPSQL,
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp-wire, longcursor or htap-sql")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.bin, "hybridgcd", filepath.Join(".bench_build", "bin", "hybridgcd"), "hybridgcd binary")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "directory for the servers' data directories")
	flag.StringVar(&cfg.gate, "break-gate", "", "give the named correctness gate a wrong expected value (for tests)")
	flag.Parse()
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			cfg.workload, seconds, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatal(err)
	}
	rep, err := measure(run, &cfg)
	if err != nil {
		fatal(err)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fatal(err)
	}
	meta := metadata(&cfg)
	meta["host_steal_share"] = rep.steal
	for k, v := range rep.meta {
		meta[k] = v
	}
	if err := printJSON(map[string]any{"meta": meta}); err != nil {
		fatal(err)
	}
	if err := printJSON(res); err != nil {
		fatal(err)
	}
}

// maxSteal is the host steal share above which a run is measured again.
// On the shared 2-CPU VM the benchmark was tuned on, steal stayed below 5%
// most of the time and reached 10–25% in episodes of a few minutes; a run
// caught in one read up to a third slower and its tail latencies up to
// two thirds longer, more than the bounds BENCHMARK.json fixes.
const maxSteal = 0.08

// measure runs the workload, and once more when the host stole more than
// maxSteal of the CPU during the window; it keeps the attempt with less
// steal and records both in the meta line. A failed gate in either attempt
// fails the run.
func measure(run func(*config) (*report, error), cfg *config) (*report, error) {
	rep, err := run(cfg)
	if err != nil || rep.steal <= maxSteal {
		return rep, err
	}
	runtime.GC()
	again, err := run(cfg)
	if err != nil {
		return nil, err
	}
	steals := []float64{rep.steal, again.steal}
	if again.steal < rep.steal {
		rep = again
	}
	rep.meta["host_steal_attempts"] = steals
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metadata describes the machine and the build a run measured.
func metadata(cfg *config) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.window.Seconds(),
		"trace":      cfg.trace,
		"setups":     setupRuns,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

// commit returns the checked-out commit when the benchmark runs in a git
// work tree, "none" otherwise.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files of the tree under
// test, so runs of different code are told apart without git.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
