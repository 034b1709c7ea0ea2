package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"swsm/internal/apps"
	"swsm/internal/harness"

	_ "swsm/internal/apps/barnes"
	_ "swsm/internal/apps/fft"
	_ "swsm/internal/apps/lu"
	_ "swsm/internal/apps/ocean"
	_ "swsm/internal/apps/radix"
	_ "swsm/internal/apps/raytrace"
	_ "swsm/internal/apps/volrend"
	_ "swsm/internal/apps/water"
)

// workload is one set of inputs the benchmark runs.  setup builds the
// pass's inputs from the seed and starts whatever it needs; its time
// counts to setup_s.  passS is the length of one untraced pass on the
// reference machine (2 vCPUs); it sets how many passes a run makes.
type workload struct {
	name, why string
	passS     float64
	setup     func(p *pass) (instance, error)
}

// The workloads put host time into different layers: fig3-base into the
// per-reference path (threads, cache model, memory), litmus-faulted into
// protocol handlers, the transport and the checker.  svmd-jobs runs
// through the service stack, and most of its operations are answered by
// it alone.  Each layer's optimisations are exercised by one and bypassed
// by another.
var workloads = []*workload{
	{
		name:  "fig3-base",
		why:   "the Figure-3 ladder at Base scale, 16 procs, one worker: bounds every sweep; time sits in the per-reference path",
		passS: 11,
		setup: setupFig3,
	},
	{
		name:  "litmus-faulted",
		why:   "seeded litmus programs on hlrc/lrc/sc at 0% and 2% drops, checker on: short protocol- and transport-bound runs",
		passS: 6,
		setup: setupLitmus,
	},
	{
		name:  "svmd-jobs",
		why:   "two closed-loop clients of an in-process daemon: fresh, repeated, failing and post-restart replayed tiny jobs",
		passS: 0.75,
		setup: setupSvmd,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// splitmix64 derives the workloads' inputs from the seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// ---- fig3-base ------------------------------------------------------

// fig3Apps are the five applications of the Figure-3 ladder; their
// inputs are fixed by the paper, so the seed is unused.
var fig3Apps = []string{"fft", "lu", "ocean", "barnes", "radix"}

const fig3Procs = 16

type fig3 struct {
	ses   *harness.Session
	specs []harness.RunSpec
	first []int // index of each app's first operation
}

func setupFig3(p *pass) (instance, error) {
	w := &fig3{ses: harness.NewSession(1)}
	for _, app := range fig3Apps {
		specs, _, err := harness.Figure3Specs(app, apps.Base, fig3Procs, harness.Figure3Configs)
		if err != nil {
			return nil, err
		}
		w.first = append(w.first, len(w.specs))
		w.specs = append(w.specs, harness.BaselineSpec(app, apps.Base, true))
		w.specs = append(w.specs, specs...)
	}
	return w, nil
}

func (w *fig3) run(p *pass) {
	for _, spec := range w.specs {
		var res *harness.Result
		p.op("Session.Run "+spec.App+"/"+string(spec.Protocol), "harness", 0, func() (err error) {
			res, err = w.ses.Run(spec)
			return err
		})
		if res != nil {
			p.addResult(res)
		}
	}
}

func (w *fig3) stop(p *pass) error { return nil }

// check rebuilds each app's speedup table from the session (every run is
// a memo hit by now) and requires it verbatim in results_all.txt, the
// committed output of the full paper sweep.  A differing table fails all
// of its app's operations.
func (w *fig3) check(p *pass) {
	p.runner = w.ses.Stats()
	ref, err := os.ReadFile(filepath.Join(p.root, "results_all.txt"))
	if err != nil {
		p.wrong(-1, "fig3-base reference: %v", err)
		for i := range w.specs {
			p.fail(i, "no reference table")
		}
		return
	}
	for a, app := range fig3Apps {
		end := len(w.specs)
		if a+1 < len(w.first) {
			end = w.first[a+1]
		}
		var bar *harness.AppBar
		p.span("Session.Figure3 "+app, "harness", "check", func() {
			bar, err = w.ses.Figure3(app, apps.Base, fig3Procs, harness.Figure3Configs)
		})
		if err != nil {
			for i := w.first[a]; i < end; i++ {
				p.fail(i, "%s: %v", app, err)
			}
			continue
		}
		if got := harness.FormatFigure3(bar, harness.Figure3Configs); !strings.Contains(string(ref), got) {
			p.wrong(-1, "%s speedup table is not in results_all.txt:\n%s", app, got)
			for i := w.first[a]; i < end; i++ {
				p.fail(i, "%s speedup table differs from results_all.txt", app)
			}
		}
	}
}

// ---- litmus-faulted -------------------------------------------------

const (
	litmusSeeds   = 256
	litmusProcs   = 8
	litmusDropPPM = 20_000 // 2%
)

var litmusProtos = []harness.ProtocolKind{harness.HLRC, harness.LRC, harness.SC}

type litmusRun struct {
	seeds [][]harness.RunSpec // per litmus seed: every protocol, clean and faulted
}

// setupLitmus derives the pass's litmus seeds from the workload seed and
// expands each into checked specs like harness.Session.LitmusSweep does:
// every protocol on the clean fabric and under 2% drops through the
// reliable transport.
func setupLitmus(p *pass) (instance, error) {
	w := &litmusRun{}
	rng := splitmix64(p.seed)
	for range litmusSeeds {
		seed := rng.next()
		var specs []harness.RunSpec
		for _, prot := range litmusProtos {
			for _, ppm := range []int64{0, litmusDropPPM} {
				spec := harness.LitmusSpec(seed, prot, apps.Tiny, litmusProcs)
				if ppm > 0 {
					spec = harness.FaultedSpec(spec, seed, ppm)
				}
				specs = append(specs, spec)
			}
		}
		w.seeds = append(w.seeds, specs)
	}
	return w, nil
}

// run executes every point, each litmus seed on a one-worker session of
// its own: a session keeps every result, and one session for the whole
// pass would hold gigabytes.  A point whose run violates its protocol's
// declared consistency model comes back as a *consistency.Violation
// error and fails like any other error.
func (w *litmusRun) run(p *pass) {
	for _, specs := range w.seeds {
		ses := harness.NewSession(1)
		for _, spec := range specs {
			var res *harness.Result
			p.op("Session.Run "+spec.App+"/"+string(spec.Protocol), "harness", 0, func() (err error) {
				if res, err = ses.Run(spec); err == nil && res.Consistency == nil {
					res, err = nil, errors.New("checked run returned no checker summary")
				}
				return err
			})
			if res != nil {
				p.addResult(res)
			}
		}
		st := ses.Stats()
		p.runner.Runs += st.Runs
		p.runner.Hits += st.Hits
		p.runner.Waits += st.Waits
	}
}

func (w *litmusRun) stop(p *pass) error { return nil }

func (w *litmusRun) check(p *pass) {}
