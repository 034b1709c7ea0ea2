package server

import (
	"context"
	"strings"
	"testing"
	"time"

	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/sim"
)

// TestFailedJobsLeakNoGoroutines pins that a failing simulation gives
// back everything it held: a batch of jobs whose reliable transport
// gives up under a 100%-drop plan ("undeliverable"), plus one job whose
// simulation deadlocks, must leave the go_goroutines figure on /metrics
// where it was before the batch once the queue drains.
func TestFailedJobsLeakNoGoroutines(t *testing.T) {
	s, ts, c := newTestServer(t, Config{Parallel: 2})
	// The one fault-free spec stands in for a simulation that deadlocks:
	// sixteen coroutines parked in Block with nothing left to wake them.
	session := s.runFn
	s.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		if spec.Fault.DropPPM > 0 {
			return session(ctx, spec)
		}
		e := sim.NewEngine()
		for i := 0; i < 16; i++ {
			e.Spawn("stuck", 0, func(c *sim.Coro) { c.Block() })
		}
		_, err := e.Run()
		return nil, err
	})
	failing := func(seed uint64) harness.RunSpec {
		spec := tinySpec(4)
		spec.Fault = fault.Spec{Seed: seed, DropPPM: fault.PPM, Reliable: true}
		return spec
	}
	run := func(spec harness.RunSpec, want string) {
		t.Helper()
		st, err := c.Run(context.Background(), api.RunRequest{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateFailed || !strings.Contains(st.Error, want) {
			t.Fatalf("job %s: state %s, error %q; want failed with %q", st.ID, st.State, st.Error, want)
		}
	}
	goroutines := func() int64 {
		_, samples := scrape(t, ts)
		return sampleInt(t, samples, "go_goroutines")
	}

	// Warm up the workers, connections and session before the baseline.
	run(failing(1), "undeliverable")
	g0 := goroutines()
	for seed := uint64(2); seed <= 21; seed++ {
		run(failing(seed), "undeliverable")
	}
	run(tinySpec(4), "deadlock")

	g := goroutines()
	for deadline := time.Now().Add(2 * time.Second); g > g0 && time.Now().Before(deadline); g = goroutines() {
		time.Sleep(10 * time.Millisecond)
	}
	if g > g0 {
		t.Fatalf("go_goroutines = %d after 20 undeliverable jobs and a deadlock, %d before: failed simulations leaked", g, g0)
	}
}
