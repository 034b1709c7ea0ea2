package harness_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"swsm/internal/apps"
	"swsm/internal/fault"
	"swsm/internal/harness"
)

func tiny8(app string, prot harness.ProtocolKind) harness.RunSpec {
	s := harness.DefaultSpec(app, prot)
	s.Scale = apps.Tiny
	s.Procs = 8
	return s
}

func rowOf(t *testing.T, spec harness.RunSpec) []byte {
	t.Helper()
	res, err := harness.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := harness.WriteRunRowJSON(&buf, harness.NewRunRow(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A run that the transport fails part-way (every transmission dropped,
// so a message exhausts its attempts) releases the machine's caches
// mid-run; the next run of the same geometry reuses them and must give
// the row it gives when no failed run came before it.
func TestFailedRunLeavesNothingStale(t *testing.T) {
	clean := tiny8("fft", harness.HLRC)
	want := rowOf(t, clean)

	failing := clean
	failing.Fault = fault.Spec{Seed: 7, DropPPM: fault.PPM, Reliable: true}
	if _, err := harness.Run(failing); err == nil || !strings.Contains(err.Error(), "undeliverable") {
		t.Fatalf("100%%-drop run: err = %v, want an undeliverable-message failure", err)
	}

	if got := rowOf(t, clean); !bytes.Equal(got, want) {
		t.Fatalf("row after a failed run differs:\n got %s\nwant %s", got, want)
	}
}

// A memoized Result keeps its counters, not its machine: caches, node
// memories and protocol state must be garbage once the run is over.  A
// machine of 8 nodes holds 8 × 264 KB of cache arrays alone, so the
// bound below fails if a Result pins its machine.
func TestMemoizedResultRetainsNoMachine(t *testing.T) {
	var specs []harness.RunSpec
	for _, app := range []string{"fft", "lu", "ocean", "radix", "barnes", "water-nsquared", "volrend", "raytrace"} {
		for _, prot := range []harness.ProtocolKind{harness.HLRC, harness.SC} {
			specs = append(specs, tiny8(app, prot))
		}
	}
	heap := func() int64 {
		// Two collections: the first moves the cache pool to its
		// victim list, the second frees it.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	s := harness.NewSession(1)
	if _, err := s.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	grown := heap() - before
	runtime.KeepAlive(s)
	const bound = 256 << 10
	if per := grown / int64(len(specs)); per > bound {
		t.Fatalf("each memoized result retains %d KB (heap grew %d KB over %d results), want at most %d KB",
			per>>10, grown>>10, len(specs), bound>>10)
	}
}
