package main

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// durations is a list of latency samples.
type durations []time.Duration

// pct returns the p-th percentile (0 < p <= 100) by nearest rank, 0 when
// there are no samples. It sorts the receiver in place.
func (d durations) pct(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	idx := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(idx, len(d)-1))]
}

func (d durations) sum() time.Duration {
	var s time.Duration
	for _, v := range d {
		s += v
	}
	return s
}

// A measured window is cut into equal sub-windows, and rates and tail
// latencies are the median over them, so a burst of interference from
// outside the benchmark moves at most the sub-windows it hits. Tail
// latencies use fewer, longer sub-windows, so each holds enough samples.
const (
	rateSlots = 10
	pctSlots  = 5
)

// latencies are the operations a load goroutine completed in one phase:
// each one's latency and its start, relative to the window's start.
type latencies struct {
	d  durations
	at []time.Duration
}

func (l *latencies) add(p *phaser, t0 time.Time, d time.Duration) {
	l.d = append(l.d, d)
	l.at = append(l.at, t0.Sub(p.start))
}

func (l *latencies) n() int { return len(l.d) }

func (l *latencies) merge(o *latencies) {
	l.d = append(l.d, o.d...)
	l.at = append(l.at, o.at...)
}

// bySlot splits the latencies into n sub-windows by when they started.
func (l *latencies) bySlot(window time.Duration, n int) []durations {
	out := make([]durations, n)
	for i, at := range l.at {
		k := min(int(at*time.Duration(n)/window), n-1)
		out[k] = append(out[k], l.d[i])
	}
	return out
}

// rates are the operations per second of each sub-window.
func (l *latencies) rates(window time.Duration) []float64 {
	var per []float64
	for _, s := range l.bySlot(window, rateSlots) {
		per = append(per, float64(len(s))/(window/rateSlots).Seconds())
	}
	return per
}

// rate is the median over sub-windows of operations per second.
func (l *latencies) rate(window time.Duration) float64 { return median(l.rates(window)) }

// pct is the median over sub-windows of each one's p-th percentile.
func (l *latencies) pct(window time.Duration, p float64) time.Duration {
	var per []float64
	for _, s := range l.bySlot(window, pctSlots) {
		per = append(per, float64(s.pct(p)))
	}
	return time.Duration(median(per))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median returns the median of xs (0 when empty). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sampler calls probe at jittered intervals on its own goroutine and keeps
// every named value it returns, so gauges (live versions, RSS, lane lag)
// are summarized by their median, mean or maximum over the measured window.
type sampler struct {
	mu     sync.Mutex
	series map[string][]float64
	errs   []error
	stop   chan struct{}
	done   chan struct{}
}

// sampleEvery is the sampler's mean interval. Each gap is drawn uniformly
// from half to one and a half times it, so samples land at every phase of
// the collectors' periodic passes instead of aliasing with them.
const sampleEvery = 40 * time.Millisecond

// startSampler takes one sample immediately and then one per jittered
// interval until finish is called. seed fixes the jitter.
func startSampler(seed int64, probe func() (map[string]float64, error)) *sampler {
	s := &sampler{series: make(map[string][]float64), stop: make(chan struct{}), done: make(chan struct{})}
	take := func() {
		vals, err := probe()
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			s.errs = append(s.errs, err)
			return
		}
		for k, v := range vals {
			s.series[k] = append(s.series[k], v)
		}
	}
	take()
	rng := rand.New(rand.NewSource(seed))
	go func() {
		defer close(s.done)
		t := time.NewTimer(sampleEvery)
		defer t.Stop()
		for {
			t.Reset(sampleEvery/2 + time.Duration(rng.Int63n(int64(sampleEvery))))
			select {
			case <-s.stop:
				return
			case <-t.C:
				take()
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for its goroutine, and reports the first
// probe error.
func (s *sampler) finish() error {
	close(s.stop)
	<-s.done
	if len(s.errs) > 0 {
		return fmt.Errorf("sampling: %w (%d failed probes)", s.errs[0], len(s.errs))
	}
	return nil
}

func (s *sampler) median(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(append([]float64(nil), s.series[name]...))
}

// mean is the average of a gauge: with samples at random phases, its
// time average over the window.
func (s *sampler) mean(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := s.series[name]
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return ratio(sum, float64(len(xs)))
}

func (s *sampler) max(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := 0.0
	for _, v := range s.series[name] {
		m = math.Max(m, v)
	}
	return m
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every mainstream Linux architecture.
const clockTicks = 100

// procCPU returns the process's user+system CPU time so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after
	// the last ')'. utime and stime are fields 14 and 15.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, f := range fields[11:13] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// hostTicks returns the machine's total and steal CPU time from /proc/stat,
// in clock ticks. Steal is time the hypervisor ran something else while a
// virtual CPU wanted to run.
func hostTicks() (total, steal int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected %q", line)
	}
	// user, nice, system, idle, iowait, irq, softirq, steal; the guest
	// columns that follow are already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// procRSS returns the process's resident set size in bytes.
func procRSS(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmRSS", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				n += info.Size()
			}
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil // a WAL segment pruned while walking
		}
		return err
	})
	return n, err
}
