package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
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

// TestCoordinatorLeavesNoResidue pins the same for a coordinator: each
// cycle builds one, joins an in-process worker, runs a sweep with a
// failing point while an SSE subscriber and an exploration are live,
// and drains everything.  The janitor, the event stream, the
// exploration driver and the agent's polls must all be gone after.
func TestCoordinatorLeavesNoResidue(t *testing.T) {
	failing := tinySpec(4)
	failing.Fault = fault.Spec{Seed: 1, DropPPM: fault.PPM, Reliable: true}
	sweep := api.SweepRequest{Points: []api.RunRequest{
		{Spec: tinySpec(2)}, {Spec: tinySpec(4)}, {Spec: failing},
	}}
	drain := func(s *Server) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}
	cycle := func() {
		coord, err := New(Config{Coordinator: &CoordinatorConfig{HeartbeatTTL: time.Second}})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(coord.Handler())
		defer ts.Close()
		worker, err := New(Config{Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		ctx, stopAgent := context.WithCancel(context.Background())
		agentDone := make(chan struct{})
		go func() {
			defer close(agentDone)
			worker.RunWorker(ctx, WorkerConfig{ID: "w", Coordinator: ts.URL, Poll: 5 * time.Millisecond})
		}()
		events, err := http.Get(ts.URL + "/events")
		if err != nil {
			t.Fatal(err)
		}
		streamDone := make(chan struct{})
		go func() {
			defer close(streamDone)
			io.Copy(io.Discard, events.Body)
			events.Body.Close()
		}()

		c := client.New(ts.URL)
		st, err := c.Sweep(context.Background(), sweep)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done != 2 || st.Failed != 1 {
			t.Fatalf("sweep done=%d failed=%d, want 2 and 1", st.Done, st.Failed)
		}
		if _, err := c.SubmitExplore(context.Background(), exploreReq()); err != nil {
			t.Fatal(err)
		}

		drain(coord) // cancels the exploration; its queued points still finish on the worker
		<-streamDone
		stopAgent()
		<-agentDone
		drain(worker)
	}

	cycle() // warm up connections and the process-wide pools first
	g0 := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cycle()
	}
	g := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); g > g0 && time.Now().Before(deadline); g = runtime.NumGoroutine() {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		time.Sleep(10 * time.Millisecond)
	}
	if g > g0 {
		t.Fatalf("%d goroutines after 3 coordinator cycles, %d before: a coordinator leaked", g, g0)
	}
}

// TestExploreFailurePathsLeakNoGoroutines pins the same for an
// exploration's failure paths: one canceled by DELETE /explore/{id},
// one whose every candidate fails, and one cut short by Drain must each
// leave go_goroutines on /metrics where it was before.
func TestExploreFailurePathsLeakNoGoroutines(t *testing.T) {
	s, ts, c := newTestServer(t, Config{Parallel: 2})
	release := make(chan struct{})
	var parked, failing atomic.Bool
	session := s.runFn
	s.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		if failing.Load() {
			return nil, errors.New("injected failure")
		}
		if parked.Load() {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return session(ctx, spec)
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	explore := func(want string) {
		t.Helper()
		st, err := c.Explore(ctx, exploreReq())
		if err != nil || st.State != want {
			t.Fatalf("explore = %+v, %v; want %s", st, err, want)
		}
	}
	goroutines := func() int64 {
		_, samples := scrape(t, ts)
		return sampleInt(t, samples, "go_goroutines")
	}
	settles := func(g0 int64, what string) {
		t.Helper()
		g := goroutines()
		for deadline := time.Now().Add(2 * time.Second); g > g0 && time.Now().Before(deadline); g = goroutines() {
			time.Sleep(10 * time.Millisecond)
		}
		if g > g0 {
			t.Fatalf("go_goroutines = %d after %s, %d before", g, what, g0)
		}
	}

	explore(api.StateDone) // warm up the session, connections and metrics
	g0 := goroutines()

	parked.Store(true)
	st, err := c.SubmitExplore(ctx, exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelExplore(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = c.GetExplore(ctx, st.ID, true); err != nil || st.State != api.StateCanceled {
		t.Fatalf("deleted exploration = %+v, %v", st, err)
	}
	close(release) // the point jobs it had queued run out
	settles(g0, "an exploration canceled by DELETE")

	failing.Store(true)
	explore(api.StateFailed)
	settles(g0, "an exploration whose every candidate failed")
	failing.Store(false)

	s2, err := New(Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	release2 := make(chan struct{})
	s2.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		select {
		case <-release2:
			return s2.ses.RunCtx(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	x, _, err := s2.submitExplore(exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() { drained <- s2.Drain(ctx) }()
	if st := s2.exploreStatus(ctx, x, true); st.State != api.StateCanceled {
		t.Fatalf("drained exploration = %+v", st)
	}
	close(release2)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	settles(g0, "an exploration cut short by Drain")
}
