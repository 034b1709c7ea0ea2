// Command swsmbench is the repository's benchmark.  It runs one named
// workload of the simulator for a fixed time, checks every output against
// its oracle, prints each metric by name with its unit, and ends with
// one JSON object: the end-to-end metrics, or with -trace 1 the
// per-layer metrics.
//
//	bash swsmbench/run.sh --workload fig3-base --seed 1 --seconds 30 --trace 0
//
// Each pass runs in a fresh child process (this binary re-executed with
// -child), so peak RSS and leaked goroutines are per pass and set-up time
// includes process start.  The run reports medians over its passes.
// With -trace 1, untraced and traced passes alternate: the traced ones
// take a CPU profile of the pass, folded into layers (layers.go), and
// record spans around every call into a layer, written at the end of the
// run to <out>/trace/<workload>-seed<seed>.trace.json (Chrome trace
// format).  -manifest prints BENCHMARK.json.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed claims are made on; heldOutSeed is kept out of
// tuning so a claim can be re-checked on inputs it was not made on.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

const (
	minPasses = 3  // passes per run, however short --seconds is
	minSetups = 11 // set-up samples per run; extra set-up-only children make up the count
	// overrun is how long a run may go on after --seconds: its passes
	// take longer on a slower host, and set-up children follow them.  A
	// run that goes on longer is killed and fails.
	overrun = 2 * time.Minute
)

func main() {
	var (
		name      = flag.String("workload", "fig3-base", "workload to run")
		seed      = flag.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
		seconds   = flag.Int("seconds", runSeconds, "how long the run measures")
		trace     = flag.Int("trace", 0, "1: report per-layer metrics from alternating traced passes")
		out       = flag.String("out", ".bench_build", "directory for stores, profiles and spans")
		man       = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		child     = flag.String("child", "", `internal: run one "pass" or "setup" in this process`)
		traced    = flag.Bool("traced", false, "internal: profile the child pass and record spans")
		spawnNano = flag.Int64("spawn-ns", 0, "internal: wall clock at which the parent started the child")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out, *man, *child, *traced, *spawnNano); err != nil {
		fmt.Fprintln(os.Stderr, "swsmbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, out string, man bool, child string, traced bool, spawnNano int64) error {
	if man {
		b, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(b)
		return err
	}
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if out, err = filepath.Abs(out); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(out, "trace"), 0o755); err != nil {
		return err
	}
	switch child {
	case "":
		return runParent(w, seed, seconds, trace == 1, out)
	case "pass", "setup":
		return runChild(w, seed, root, out, traced, child == "setup", time.Unix(0, spawnNano))
	}
	return fmt.Errorf("-child %q: want pass or setup", child)
}

// passCount is how many passes a run of the given length makes: as many
// as fill it on the reference machine, at least minPasses.  The count
// does not depend on how fast the host happens to be, so a run's
// attempted and failed operations depend only on the seed and --seconds,
// and two runs of one seed report the same.
func passCount(w *workload, seconds int) int {
	return max(minPasses, int(float64(seconds)/w.passS))
}

// runParent runs the run's passes in child processes, then reports.
func runParent(w *workload, seed uint64, seconds int, traceRun bool, out string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+overrun)
	defer cancel()
	var passes []passResult
	for i := range passCount(w, seconds) {
		r, err := spawn(ctx, w, seed, out, "pass", traceRun && i%2 == 1)
		if err != nil {
			return err
		}
		passes = append(passes, r)
	}
	var setups []float64
	for _, r := range passes {
		setups = append(setups, r.SetupS)
	}
	for len(setups) < minSetups {
		r, err := spawn(ctx, w, seed, out, "setup", false)
		if err != nil {
			return err
		}
		setups = append(setups, r.SetupS)
	}
	return report(w, seed, passes, setups, traceRun, out)
}

// spawn runs one child and decodes its result; ctx's deadline kills it.
func spawn(ctx context.Context, w *workload, seed uint64, out, mode string, traced bool) (passResult, error) {
	var r passResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe,
		"-child", mode, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-out", out, "-traced="+strconv.FormatBool(traced),
		"-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return r, fmt.Errorf("%s %s child: %w", w.name, mode, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return r, fmt.Errorf("%s %s child output: %w", w.name, mode, err)
	}
	return r, nil
}

// simulated reports whether a counter counts simulated work, which must
// repeat exactly on every pass of one seed.
func simulated(name string) bool {
	for _, p := range []string{"stats.", "core.", "cache.", "proto.", "comm.", "consistency."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func report(w *workload, seed uint64, passes []passResult, setups []float64, traceRun bool, out string) error {
	var plain, traced []passResult
	attempted, failed := 0, 0
	var wrong, failures []string
	for _, r := range passes {
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		attempted += r.Attempted
		failed += r.Failed
		wrong = append(wrong, r.Wrong...)
		failures = append(failures, r.Failures...)
	}
	for _, r := range passes[1:] {
		if r.Failed != passes[0].Failed {
			continue // a missing result changes the sums; its failure is counted already
		}
		for k, v := range passes[0].Counters {
			if simulated(k) && r.Counters[k] != v {
				wrong = append(wrong, fmt.Sprintf("%s differs between passes: %v vs %v", k, v, r.Counters[k]))
			}
		}
	}
	each := func(rs []passResult, f func(passResult) float64) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, f(r))
		}
		return median(v)
	}
	opsPerPass := len(passes[0].OpsMS)
	_, tailPct, ok := tail(passes[0].OpsMS)
	if !ok {
		return fmt.Errorf("%d operations per pass: too few for a tail percentile", opsPerPass)
	}

	fmt.Printf("swsmbench %s seed %d: %d passes (%d traced) of %d operations, %d set-ups\n",
		w.name, seed, len(passes), len(traced), opsPerPass, len(setups))
	metrics := map[string]value{}
	show := func(name string, v float64, unit, note string) {
		fmt.Printf("  %-28s %14.6g %-6s %s\n", name, v, unit, note)
	}
	leaked := each(passes, func(r passResult) float64 { return float64(r.Leaked) })
	if !traceRun {
		e2e := map[string]float64{
			"wall_s":           each(plain, func(r passResult) float64 { return r.WallS }),
			"sim_cycles_per_s": each(plain, func(r passResult) float64 { return r.SimCycles / r.WallS }),
			"op_p50_ms":        each(plain, func(r passResult) float64 { return median(r.OpsMS) }),
			"op_tail_ms":       each(plain, func(r passResult) float64 { v, _, _ := tail(r.OpsMS); return v }),
			"setup_s":          median(setups),
			"peak_rss_mb":      each(plain, func(r passResult) float64 { return r.PeakRSSMB }),
		}
		notes := map[string]string{
			"op_tail_ms": fmt.Sprintf("p%.1f: 10 of %d operations per pass are slower", tailPct, opsPerPass),
			"setup_s":    fmt.Sprintf("median of %d set-ups", len(setups)),
		}
		for _, m := range endToEnd {
			v := e2e[m.Name]
			note := notes[m.Name]
			if note == "" {
				note = fmt.Sprintf("median of %d passes", len(plain))
			}
			show(m.Name, v, m.Unit, note)
			metrics[m.Name] = value{v, m.Unit}
		}
		show("failed_frac", float64(failed)/float64(attempted), "ratio", fmt.Sprintf("%d of %d operations failed", failed, attempted))
		show("leaked_goroutines", leaked, "count", "median of passes")
	} else {
		lm := map[string]float64{"leaked_goroutines": leaked}
		for _, s := range selfTime {
			lm[s.metric] = each(traced, func(r passResult) float64 { return r.SelfS[s.layer] })
		}
		for k := range passes[0].Runtime {
			lm[k] = each(plain, func(r passResult) float64 { return r.Runtime[k] })
		}
		for k := range passes[0].Counters {
			lm[k] = each(passes, func(r passResult) float64 { return r.Counters[k] })
		}
		lm["trace.overhead_frac"] = each(traced, func(r passResult) float64 { return r.WallS })/
			each(plain, func(r passResult) float64 { return r.WallS }) - 1
		for _, m := range perLayer() {
			v := lm[m.Name]
			show(m.Name, v, m.Unit, "")
			metrics[m.Name] = value{v, m.Unit}
		}
		if err := writeSpans(filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.trace.json", w.name, seed)), passes); err != nil {
			return err
		}
	}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric is not a number: %+v", metrics)
		}
	}
	failures = unique(failures)
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("  ... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Println("  failed:", f)
	}
	for _, s := range unique(wrong) {
		fmt.Println("  WRONG:", s)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(wrong) == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// unique returns the distinct strings of v, sorted: every pass of a
// seed repeats the same failures.
func unique(v []string) []string {
	slices.Sort(v)
	return slices.Compact(v)
}

// writeSpans writes the traced passes' spans as a Chrome trace: one
// process per pass, one thread per caller.
func writeSpans(path string, passes []passResult) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for i, r := range passes {
		for _, s := range r.Spans {
			evs = append(evs, event{s.Name, s.Layer, "X", s.StartUS, s.DurUS, i, s.Caller,
				map[string]any{"op": s.Op, "parent": s.Parent}})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
