package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"swsm/internal/harness"
	"swsm/internal/harness/runner"
	"swsm/internal/store"
)

// passResult is what one child process reports about its pass.
type passResult struct {
	Traced    bool      `json:"traced"`
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"`
	OpsMS     []float64 `json:"ops_ms"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Failures describes failed operations; Wrong describes outputs the
	// program returned as successful that did not match their oracle.
	Failures  []string           `json:"failures,omitempty"`
	Wrong     []string           `json:"wrong,omitempty"`
	SimCycles float64            `json:"sim_cycles"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Leaked    int                `json:"leaked_goroutines"`
	Counters  map[string]float64 `json:"counters"`
	Runtime   map[string]float64 `json:"runtime"`
	SelfS     map[string]float64 `json:"self_s,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
}

// span is one timed call into a layer, in microseconds since the pass's
// process started its set-up.  Spans of one operation share Op; Parent
// names the enclosing span.
type span struct {
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Caller  int     `json:"caller"`
	Op      int     `json:"op"`
	Parent  string  `json:"parent,omitempty"`
}

// pass is one measured pass of a workload inside a child process.
type pass struct {
	seed   uint64
	root   string // checkout root: the reference outputs live here
	out    string // scratch directory for stores and profiles
	traced bool
	t0     time.Time // process-local origin of span times

	mu      sync.Mutex
	res     passResult
	opOK    []bool
	rows    []*harness.RunRow // successful operations' results
	runner  runner.Stats
	store   store.Stats
	rejects int
}

// op runs one timed operation: fn's error marks it failed, and a
// *wrongOutput error marks its output wrong as well.  It returns the
// operation's index for later checks (see fail).
func (p *pass) op(name, layer string, caller int, fn func() error) int {
	p.mu.Lock()
	i := len(p.opOK)
	p.opOK = append(p.opOK, true)
	p.mu.Unlock()
	start := time.Now()
	err := fn()
	end := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.OpsMS = append(p.res.OpsMS, float64(end.Sub(start).Nanoseconds())/1e6)
	if p.traced {
		p.addSpanLocked(name, layer, caller, i, "pass", start, end)
	}
	if wo := (*wrongOutput)(nil); errors.As(err, &wo) {
		p.res.Wrong = append(p.res.Wrong, wo.msg)
	}
	if err != nil {
		p.failLocked(i, err.Error())
	}
	return i
}

// span records a span, caused by the span named parent, around a call
// that is not an operation of its own: set-up, daemon start and restart,
// verification runs.
func (p *pass) span(name, layer, parent string, fn func()) {
	start := time.Now()
	fn()
	if p.traced {
		p.mu.Lock()
		p.addSpanLocked(name, layer, 0, -1, parent, start, time.Now())
		p.mu.Unlock()
	}
}

func (p *pass) addSpanLocked(name, layer string, caller, op int, parent string, start, end time.Time) {
	p.res.Spans = append(p.res.Spans, span{
		Name: name, Layer: layer, Caller: caller, Op: op, Parent: parent,
		StartUS: float64(start.Sub(p.t0).Nanoseconds()) / 1e3,
		DurUS:   float64(end.Sub(start).Nanoseconds()) / 1e3,
	})
}

// fail marks operation i failed (once) with a reason.
func (p *pass) fail(i int, format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failLocked(i, fmt.Sprintf(format, args...))
}

func (p *pass) failLocked(i int, msg string) {
	if !p.opOK[i] {
		return
	}
	p.opOK[i] = false
	if len(p.res.Failures) < 20 {
		msg, _, _ = strings.Cut(msg, "\n")
		p.res.Failures = append(p.res.Failures, msg)
	}
}

// wrong records an output the program returned as successful that its
// oracle rejects; it fails operation i too (i < 0: no single operation).
func (p *pass) wrong(i int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.res.Wrong = append(p.res.Wrong, msg)
	if i >= 0 {
		p.failLocked(i, msg)
	}
}

// addResult records a successful local simulation's result as its row,
// which is small: the result itself holds the whole simulated machine.
func (p *pass) addResult(res *harness.Result) {
	row := harness.NewRunRow(res)
	p.mu.Lock()
	p.rows = append(p.rows, &row)
	p.res.SimCycles += float64(res.Cycles)
	p.mu.Unlock()
}

// addRow records a successful remote operation's result row; simulated
// says the daemon ran the simulation for it, rather than answering from
// its store or an identical job.
func (p *pass) addRow(row *harness.RunRow, simulated bool) {
	p.mu.Lock()
	p.rows = append(p.rows, row)
	if simulated {
		p.res.SimCycles += float64(row.Cycles)
	}
	p.mu.Unlock()
}

// instance is one workload prepared for a pass: set-up happened when it
// was built; run is the timed pass; stop releases what set-up started;
// check verifies outputs after the clock and the leak count are read.
type instance interface {
	run(p *pass)
	stop(p *pass) error
	check(p *pass)
}

// runChild runs one pass (or, with setupOnly, just its set-up) in this
// process and prints its passResult as JSON.
func runChild(w *workload, seed uint64, root, out string, traced, setupOnly bool, spawn time.Time) error {
	p := &pass{seed: seed, root: root, out: out, traced: traced, t0: time.Now()}
	p.res.Traced = traced
	g0 := runtime.NumGoroutine()

	var inst instance
	var err error
	p.span("setup", "benchmark", "", func() { inst, err = w.setup(p) })
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name, err)
	}
	p.res.SetupS = time.Since(spawn).Seconds()
	if setupOnly {
		if err := inst.stop(p); err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(p.res)
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	p.span("pass", "benchmark", "", func() { inst.run(p) })
	p.res.WallS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if traced {
		pprof.StopCPUProfile()
	}
	if p.res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}

	if err := inst.stop(p); err != nil {
		return err
	}
	p.res.Leaked = settledGoroutines() - g0
	p.span("check", "benchmark", "", func() { inst.check(p) })

	ops := float64(len(p.opOK))
	p.res.Attempted = len(p.opOK)
	for _, ok := range p.opOK {
		if !ok {
			p.res.Failed++
		}
	}
	p.res.Runtime = map[string]float64{
		"runtime.allocs_per_op":      float64(ms1.Mallocs-ms0.Mallocs) / ops,
		"runtime.alloc_bytes_per_op": float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops,
		"runtime.gc_cycles":          float64(ms1.NumGC - ms0.NumGC),
	}
	p.res.Counters = p.counters()
	if traced {
		self, err := foldProfile(prof.Bytes())
		if err != nil {
			return err
		}
		p.res.SelfS = self
		name := fmt.Sprintf("%s-seed%d-pid%d.pprof", w.name, seed, os.Getpid())
		if err := os.WriteFile(filepath.Join(out, "trace", name), prof.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(p.res)
}

// counters sums the per-layer counters over the pass's successful
// results, plus the service counters the workload read.
func (p *pass) counters() map[string]float64 {
	c := map[string]float64{}
	for _, row := range p.rows {
		for _, rc := range rowCounters {
			c[rc.metric] += float64(row.Counters[rc.counter])
		}
		procs := float64(row.Spec.Procs)
		for _, rc := range rowCycles {
			c[rc.metric] += math.Round(row.Breakdown[rc.category] * procs)
		}
		c["stats.sim_cycles"] += float64(row.Cycles)
		if cs := row.Consistency; cs != nil {
			c["consistency.loads_checked"] += float64(cs.Loads)
			c["consistency.sync_ops"] += float64(cs.SyncOps)
		}
	}
	c["runner.runs"] = float64(p.runner.Runs)
	c["runner.hits"] = float64(p.runner.Hits)
	c["runner.waits"] = float64(p.runner.Waits)
	c["store.hits"] = float64(p.store.Hits)
	c["store.misses"] = float64(p.store.Misses)
	c["store.puts"] = float64(p.store.Puts)
	c["store.bytes"] = float64(p.store.Bytes)
	c["server.rejected"] = float64(p.rejects)
	return c
}

// settledGoroutines collects garbage and waits until the goroutine count
// stops falling, so goroutines that are merely on their way out (closed
// connections, finished workers) are not counted as leaked.
func settledGoroutines() int {
	n := -1
	for stable, deadline := 0, time.Now().Add(2*time.Second); stable < 5 && time.Now().Before(deadline); {
		runtime.GC()
		if m := runtime.NumGoroutine(); m == n {
			stable++
		} else {
			n, stable = m, 0
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
