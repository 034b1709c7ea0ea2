// Simulator self-benchmarks: fixed-iteration measurements of the engine
// hot paths and of end-to-end Figure-3 points, reported as the
// BENCH_<rev>.json trajectory artifact that CI gates on.
//
// Unlike testing.Benchmark, iteration counts are fixed constants: the
// numbers are compared across commits, so run-to-run variance must come
// only from the machine, never from the harness choosing a different N.
// Every measurement is best-of-Reps wall time (the minimum is the run
// least disturbed by the host), with allocations per op from the same
// rep.
package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"swsm/internal/apps"
	"swsm/internal/sim"
)

// BenchResult is one benchmark's measurement.
type BenchResult struct {
	Name  string `json:"name"`
	Iters int64  `json:"iters"`
	// NsPerOp is wall nanoseconds per operation (event, sleep, or run).
	NsPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is operations per wall second.
	OpsPerSec float64 `json:"ops_per_sec"`
	// SimCycles is the virtual time the measured work advanced.
	SimCycles int64 `json:"sim_cycles"`
	// CyclesPerSec is simulated cycles per wall second — the headline
	// throughput metric the CI gate compares.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// WallSeconds is the best rep's wall time.
	WallSeconds float64 `json:"wall_seconds"`
}

// BenchReport is the BENCH_<rev>.json document.
type BenchReport struct {
	Rev     string        `json:"rev"`
	GoOS    string        `json:"goos"`
	GoArch  string        `json:"goarch"`
	Benches []BenchResult `json:"benches"`
}

// benchReps is the best-of repetition count for every benchmark.
const benchReps = 5

// runTimed measures f best-of-benchReps.  f performs the full fixed
// workload and returns how many operations it executed and how much
// virtual time it advanced.
func runTimed(name string, f func() (ops, simCycles int64)) BenchResult {
	f() // warm-up: pools, buckets, code paths
	var best BenchResult
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < benchReps; rep++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ops, simCycles := f()
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		if rep == 0 || wall < best.WallSeconds {
			best = BenchResult{
				Name:         name,
				Iters:        ops,
				NsPerOp:      wall * 1e9 / float64(ops),
				OpsPerSec:    float64(ops) / wall,
				SimCycles:    simCycles,
				CyclesPerSec: float64(simCycles) / wall,
				AllocsPerOp:  float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
				WallSeconds:  wall,
			}
		}
	}
	return best
}

// benchChainEvents is the event core's tightest loop: one self-
// rescheduling callback, exercising the register fast path.
func benchChainEvents() BenchResult {
	const n = 2_000_000
	return runTimed("engine/chain-events", func() (int64, int64) {
		e := sim.NewEngine()
		start := e.Now()
		remaining := n
		var chain func()
		chain = func() {
			if remaining > 0 {
				remaining--
				e.After(1, chain)
			}
		}
		e.At(start, chain)
		if _, err := e.Run(); err != nil {
			panic(err)
		}
		return n, e.Now() - start
	})
}

// benchFanoutEvents schedules bursts of 64 simultaneous events across 8
// timestamps, exercising calendar buckets rather than the register.
func benchFanoutEvents() BenchResult {
	const n = 2_000_000
	return runTimed("engine/fanout-events", func() (int64, int64) {
		e := sim.NewEngine()
		start := e.Now()
		fn := func() {}
		for i := 0; i < n; i += 64 {
			base := e.Now()
			for j := 0; j < 64; j++ {
				e.At(base+sim.Time(j%8), fn)
			}
			if _, err := e.Run(); err != nil {
				panic(err)
			}
		}
		return n, e.Now() - start
	})
}

// benchSleepFastpath measures the batched time-quantum fast path: a lone
// coroutine sleeping with nothing else queued advances the clock in
// place, with no event, no yield and no context switch.
func benchSleepFastpath() BenchResult {
	const n = 2_000_000
	const quantum = 100
	return runTimed("engine/sleep-fastpath", func() (int64, int64) {
		e := sim.NewEngine()
		start := e.Now()
		e.Spawn("worker", start, func(c *sim.Coro) {
			for i := 0; i < n; i++ {
				c.Sleep(quantum)
			}
		})
		if _, err := e.Run(); err != nil {
			panic(err)
		}
		return n, e.Now() - start
	})
}

// benchCoroHandoff forces the slow path: two coroutines with interleaved
// wake-ups must really suspend, so every sleep is a yield to the
// engine's loop and a runtime coroutine switch back.
func benchCoroHandoff() BenchResult {
	const n = 1_000_000 // total sleeps across both coroutines
	return runTimed("engine/coro-handoff", func() (int64, int64) {
		e := sim.NewEngine()
		start := e.Now()
		body := func(c *sim.Coro) {
			for i := 0; i < n/2; i++ {
				c.Sleep(1)
			}
		}
		e.Spawn("a", start, body)
		e.Spawn("b", start, body)
		if _, err := e.Run(); err != nil {
			panic(err)
		}
		return n, e.Now() - start
	})
}

// benchFig3 runs one end-to-end Figure-3 point (tiny scale so CI stays
// fast) and reports simulated cycles per wall second.
func benchFig3(app string, procs int) BenchResult {
	name := fmt.Sprintf("fig3/%s-tiny-%dp", app, procs)
	return runTimed(name, func() (int64, int64) {
		spec := DefaultSpec(app, HLRC)
		spec.Scale = apps.Tiny
		spec.Procs = procs
		res, err := Run(spec)
		if err != nil {
			panic(err)
		}
		return 1, res.Cycles
	})
}

// RunBench executes the full self-benchmark suite.
func RunBench(rev string) BenchReport {
	return BenchReport{
		Rev:    rev,
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		Benches: []BenchResult{
			benchChainEvents(),
			benchFanoutEvents(),
			benchSleepFastpath(),
			benchCoroHandoff(),
			benchFig3("fft", 4),
			benchFig3("lu", 4),
		},
	}
}

// CompareBench gates the current report against a committed baseline:
// any bench present in both fails on a >10% cycles/sec regression, and
// allocations per op may grow by at most 1% + 0.01 absolute regardless
// of speed — effectively zero for the steady-state engine benches
// (baseline ~0 allocs/op), while the whole-run fig3 benches tolerate the
// ±1 allocation of runtime-internal jitter (sudog refills, map growth
// timing) without letting a real per-access allocation through.  Benches
// only present on one side are reported but never fail, so the suite can
// grow without invalidating old baselines.
func CompareBench(baseline, current BenchReport) []string {
	const tolerance = 0.10
	base := make(map[string]BenchResult, len(baseline.Benches))
	for _, b := range baseline.Benches {
		base[b.Name] = b
	}
	var failures []string
	for _, cur := range current.Benches {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		if b.CyclesPerSec > 0 && cur.CyclesPerSec < b.CyclesPerSec*(1-tolerance) {
			failures = append(failures, fmt.Sprintf(
				"%s: cycles/sec regressed %.1f%% (baseline %.3g, current %.3g)",
				cur.Name, 100*(1-cur.CyclesPerSec/b.CyclesPerSec),
				b.CyclesPerSec, cur.CyclesPerSec))
		}
		if cur.AllocsPerOp > b.AllocsPerOp*1.01+0.01 {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op grew from %.3f to %.3f",
				cur.Name, b.AllocsPerOp, cur.AllocsPerOp))
		}
	}
	return failures
}

// LoadBenchReport reads a BENCH_*.json file.
func LoadBenchReport(path string) (BenchReport, error) {
	var r BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
