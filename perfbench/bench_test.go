package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bins holds the hybridgcd and perfbench binaries built once for the tests.
var bins struct{ dir, hybridgcd, perfbench string }

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	bins.dir = dir
	bins.hybridgcd = filepath.Join(dir, "hybridgcd")
	bins.perfbench = filepath.Join(dir, "perfbench")
	for _, b := range [][]string{{bins.hybridgcd, "hybridgc/cmd/hybridgcd"}, {bins.perfbench, "."}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs one short workload and returns its exit error, the parsed
// last line (nil when absent) and standard error.
func runBench(t *testing.T, workload, trace string, extra ...string) (error, *result, string) {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"-hybridgcd", bins.hybridgcd, "-work", t.TempDir()}, extra...)
	cmd := exec.Command(bins.perfbench, args...)
	cmd.Dir = ".."
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res *result
	if last := lines[len(lines)-1]; strings.HasPrefix(last, `{"correct"`) {
		res = &result{}
		if jerr := json.Unmarshal([]byte(last), res); jerr != nil {
			t.Fatalf("%s: last line is not a result: %v\n%s", workload, jerr, last)
		}
	}
	return err, res, stderr.String()
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmitted runs every workload briefly, untraced and traced,
// and checks that each metric BENCHMARK.json names is printed with its unit
// and nothing else is, and that the end-to-end metrics are never 0.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, tc := range []struct {
			trace string
			want  []struct{ Name, Unit string }
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			err, res, stderr := runBench(t, w.Name, tc.trace)
			if err != nil || res == nil {
				t.Fatalf("%s trace=%s: %v\n%s", w.Name, tc.trace, err, stderr)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, tc.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%s: %d metrics printed, BENCHMARK.json lists %d", w.Name, tc.trace, len(res.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w.Name, tc.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, tc.trace, m.Name, got.Unit, m.Unit)
				case tc.trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGatesTrip gives each correctness gate a wrong expected value (or, for
// the TPC-C consistency check, a corrupted warehouse row) and checks that
// the run fails without printing a result.
func TestGatesTrip(t *testing.T) {
	for _, tc := range []struct{ workload, gate string }{
		{"longcursor", "tpcc-check"},
		{"longcursor", "orders"},
		{"longcursor", "fetch"},
		{"oltp-wire", "tpcc-check"},
		{"oltp-wire", "orders"},
		{"htap-sql", "htap-sum"},
		{"htap-sql", "htap-count"},
		{"htap-sql", "htap-regions"},
	} {
		err, res, stderr := runBench(t, tc.workload, "0", "-break-gate", tc.gate)
		if err == nil || res != nil {
			t.Errorf("%s: gate %s did not fail the run (err=%v, result=%v)", tc.workload, tc.gate, err, res)
			continue
		}
		if !strings.Contains(stderr, "gate "+tc.gate) {
			t.Errorf("%s: run failed, but not at gate %s:\n%s", tc.workload, tc.gate, stderr)
		}
	}
}

// TestBareDirectoryFails runs the wrapper in a directory holding only
// BENCHMARK.json and the benchmark's files: there is no engine to build, so
// it must fail without printing a result.
func TestBareDirectoryFails(t *testing.T) {
	dir := t.TempDir()
	files := []string{filepath.Join("..", "BENCHMARK.json")}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() {
			files = append(files, e.Name())
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, "perfbench", f)
		if f == files[0] {
			dst = filepath.Join(dir, "BENCHMARK.json")
		}
		if err := os.WriteFile(dst, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "oltp-wire", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil || strings.Contains(string(out), `"correct"`) {
		t.Fatalf("bare directory run: err=%v output=%q", err, out)
	}
}

// TestMeasureRetriesStolenRun checks that a run whose window lost more than
// maxSteal of the CPU to the hypervisor is measured once more, that the
// attempt with less steal is kept, and that a quiet run is not repeated.
func TestMeasureRetriesStolenRun(t *testing.T) {
	for _, tc := range []struct {
		steals []float64
		runs   int
		kept   float64
	}{
		{[]float64{0.01}, 1, 0.01},
		{[]float64{0.20, 0.03}, 2, 0.03},
		{[]float64{0.15, 0.30}, 2, 0.15},
	} {
		runs := 0
		run := func(*config) (*report, error) {
			rep := newReport()
			rep.steal = tc.steals[runs]
			runs++
			return rep, nil
		}
		rep, err := measure(run, &config{})
		if err != nil {
			t.Fatal(err)
		}
		if runs != tc.runs || rep.steal != tc.kept {
			t.Errorf("steals %v: %d runs, kept %v; want %d runs, kept %v", tc.steals, runs, rep.steal, tc.runs, tc.kept)
		}
	}
}
