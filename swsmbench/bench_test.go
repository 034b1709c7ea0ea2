package main

import (
	"bytes"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"swsm/internal/apps"
	"swsm/internal/harness"
)

// TestEveryPackageHasALayer keeps the profile fold complete: a package
// added under internal/ must be given a layer in packageLayers, or its
// host time would be reported as "other" without anyone noticing.
func TestEveryPackageHasALayer(t *testing.T) {
	named := map[string]bool{}
	for _, s := range selfTime {
		named[s.layer] = true
	}
	n := 0
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		rel, err := filepath.Rel("..", filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "swsm/" + filepath.ToSlash(rel)
		layer, ok := layerOfPackage(pkg)
		if !ok || !named[layer] || layer == "other" {
			t.Errorf("package %s maps to no named layer (got %q)", pkg, layer)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("found no packages under ../internal")
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with -manifest:\n%s", want)
	}
}

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"swsm/internal/core.(*Thread).pre", "swsm/internal/apps/fft.(*FFT).Run"}, "core"},
		{[]string{"swsm/internal/harness/runner.(*Pool[...]).DoCtx"}, "harness"},
		{[]string{"swsm/internal/proto/hlrc.(*HLRC).fault"}, "proto"},
		{[]string{"runtime.mallocgc", "swsm/internal/cache.(*level).init"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "swsm/internal/sim.(*Engine).Run"}, "sched"},
		{[]string{"runtime.memmove", "runtime.growslice", "swsm/internal/cache.Access"}, "cache"},
		{[]string{"encoding/json.(*encodeState).marshal", "swsm/internal/server.writeJSON"}, "server"},
		{[]string{"crypto/sha256.block", "swsm/internal/store.(*Store).Put", "swsm/internal/server.(*Server).resolve"}, "store"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"main.main"}, "other"},
		{nil, "other"},
	} {
		if got := stackLayer(tc.frames); got != tc.want {
			t.Errorf("stackLayer(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

// TestFoldProfile profiles a few simulations and checks the decoder
// finds their CPU time and folds some of it into the simulator's layers.
// (Under the race detector most samples land in the detector's runtime,
// which carries no repository frame, so the share is not checked.)
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		spec := harness.DefaultSpec("fft", harness.HLRC)
		spec.Scale = apps.Tiny
		spec.Procs = 4
		if _, err := harness.Run(spec); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	self, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range self {
		total += s
	}
	if sim := self["sim"] + self["core"] + self["cache"] + self["apps"]; total < 0.1 || sim == 0 {
		t.Fatalf("folded %.2fs of CPU, %.2fs in the engine, threads, cache and apps: %v", total, sim, self)
	}
}

func TestMedianAndTail(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	v := make([]float64, 70)
	for i := range v {
		v[i] = float64(70 - i)
	}
	got, pct, ok := tail(v)
	if !ok || got != 60 || math.Abs(pct-100*60.0/70) > 1e-9 {
		t.Errorf("tail = %v at p%v (%v), want 60 at p85.7", got, pct, ok)
	}
	if _, _, ok := tail(v[:10]); ok {
		t.Error("tail of 10 samples should be undefined")
	}
}

// TestSvmdStream pins the request mix and its determinism per seed.
func TestSvmdStream(t *testing.T) {
	var a, b svmdJobs
	a.stream(7)
	b.stream(7)
	if len(a.reqs) != len(b.reqs) {
		t.Fatal("one seed gave two streams")
	}
	for i := range a.reqs {
		if a.reqs[i] != b.reqs[i] {
			t.Fatal("one seed gave two streams")
		}
	}
	count := map[jobKind]int{}
	for i, r := range a.reqs {
		count[r.kind]++
		if r.kind == repeat && (r.orig >= i || a.reqs[r.orig].kind != fresh || a.reqs[r.orig].spec != r.spec) {
			t.Errorf("repeat %d does not follow a fresh request of its spec", i)
		}
		if r.kind == failing && (r.spec.Fault.DropPPM != 1_000_000 || !r.spec.Fault.Reliable) {
			t.Errorf("failing request %d has fault plan %+v", i, r.spec.Fault)
		}
	}
	if count[fresh] != svmdFresh || count[repeat] != svmdRepeats || count[failing] != svmdFailing {
		t.Errorf("mix = %v", count)
	}
	if n := count[fresh] + count[repeat] + count[failing]; count[failing]*10 != n {
		t.Errorf("%d of %d phase-one requests fail; want one in ten", count[failing], n)
	}
	seen := map[int]bool{}
	for _, i := range a.replays {
		if a.reqs[i].kind == failing {
			t.Errorf("failing request %d is replayed", i)
		}
		seen[i] = true
	}
	if len(seen) != svmdFresh+svmdRepeats {
		t.Errorf("%d distinct replays of %d fresh and repeated requests", len(seen), svmdFresh+svmdRepeats)
	}
	if len(a.samples) != svmdSamples {
		t.Errorf("%d samples", len(a.samples))
	}
	for _, i := range a.samples {
		if a.reqs[i].kind != fresh {
			t.Errorf("sample %d is not a fresh request", i)
		}
	}
	var c svmdJobs
	c.stream(8)
	same := true
	for i := range a.reqs {
		same = same && a.reqs[i] == c.reqs[i]
	}
	if same {
		t.Error("seeds 7 and 8 gave the same stream")
	}
}
