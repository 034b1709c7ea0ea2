package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// Integration tests: real worker daemons behind real agents leasing
// over HTTP from a real coordinator.  The acceptance bar throughout is
// byte-identity — a sweep through the cluster must produce rows
// indistinguishable from a single local daemon, including across a
// worker death and a coordinator restart.

func newWorkerDaemon(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

// startAgent runs a worker agent until test cleanup (or the returned
// cancel, for tests that kill a worker mid-sweep).
func startAgent(t *testing.T, id, coordinator string, srv *server.Server) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.RunWorker(ctx, server.WorkerConfig{ID: id, Coordinator: coordinator, Poll: 10 * time.Millisecond})
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return cancel
}

// localRow computes the single-daemon reference row for a request.
func localRow(t *testing.T, local *server.Server, req api.RunRequest) *harness.RunRow {
	t.Helper()
	row, _, err := local.Execute(context.Background(), req)
	if err != nil {
		t.Fatalf("local execute: %v", err)
	}
	return row
}

func rowsEqual(t *testing.T, got, want *harness.RunRow, what string) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no row", what)
	}
	gj, err1 := json.Marshal(got)
	wj, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: cluster row differs from local:\n cluster %s\n local   %s", what, gj, wj)
	}
}

// A sweep sharded across three workers returns rows byte-identical to
// a single local daemon, each point simulated exactly once cluster-wide.
func TestClusterSweepMatchesLocal(t *testing.T) {
	c := newCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 2 * time.Second}, "")
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	daemons := make([]*server.Server, 3)
	for i, id := range []string{"w1", "w2", "w3"} {
		daemons[i] = newWorkerDaemon(t, server.Config{Parallel: 2})
		startAgent(t, id, ts.URL, daemons[i])
	}

	var points []api.RunRequest
	for procs := 1; procs <= 8; procs++ {
		points = append(points, creq(procs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := client.New(ts.URL).Sweep(ctx, api.SweepRequest{Points: points})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if st.Done != len(points) || st.Failed != 0 {
		t.Fatalf("sweep finished done=%d failed=%d of %d", st.Done, st.Failed, st.Total)
	}

	local := newWorkerDaemon(t, server.Config{Parallel: 2})
	executors := map[string]bool{}
	for i, p := range st.Points {
		rowsEqual(t, p.Row, localRow(t, local, points[i]), p.ID)
		executors[p.Worker] = true
	}
	if len(executors) < 2 {
		t.Fatalf("sweep did not shard: all points executed by %v", executors)
	}

	// Exactly-once accounting: 8 distinct points, 8 simulations total
	// across the fleet, no duplicate completions, no re-dispatches.
	var runs int64
	for _, d := range daemons {
		runs += d.RunnerStats().Runs
	}
	if runs != int64(len(points)) {
		t.Fatalf("fleet ran %d simulations for %d points", runs, len(points))
	}
	cst := c.ClusterStatus()
	if cst.Duplicates != 0 || cst.Redispatches != 0 {
		t.Fatalf("clean sweep recorded duplicates=%d redispatches=%d", cst.Duplicates, cst.Redispatches)
	}
}

// Killing a worker mid-sweep re-dispatches its leased jobs after
// heartbeat lapse, and the sweep still completes with rows identical
// to a local run.
func TestClusterWorkerDeathRedispatch(t *testing.T) {
	c := newCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 100 * time.Millisecond}, "")
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)

	survivor := newWorkerDaemon(t, server.Config{Parallel: 2})
	startAgent(t, "survivor", ts.URL, survivor)

	// The victim's daemon never finishes a simulation: it blocks until
	// the test releases it, so any job it leases is stuck until the
	// coordinator declares the worker dead and re-dispatches.
	victim := newWorkerDaemon(t, server.Config{Parallel: 2})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // unblock detached jobs so Drain returns
	victim.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return nil, errors.New("victim released after death")
		}
	})
	killVictim := startAgent(t, "victim", ts.URL, victim)

	var points []api.RunRequest
	for procs := 1; procs <= 10; procs++ {
		points = append(points, creq(procs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(ts.URL)
	var ids []string
	for _, p := range points {
		st, err := cl.Submit(ctx, p)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, st.ID)
	}

	// Wait until the victim actually holds a lease, then kill it.  The
	// held job cannot complete (its simulator is blocked), so this never
	// races with the sweep finishing early.
	deadline := time.Now().Add(10 * time.Second)
	for {
		leased := 0
		for _, w := range c.ClusterStatus().Workers {
			if w.ID == "victim" {
				leased = w.Leased
			}
		}
		if leased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	killVictim()

	local := newWorkerDaemon(t, server.Config{Parallel: 2})
	for i, id := range ids {
		st, err := cl.Get(ctx, id, true)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		rowsEqual(t, st.Row, localRow(t, local, points[i]), id)
	}
	cst := c.ClusterStatus()
	if cst.Redispatches == 0 {
		t.Fatal("worker death caused no re-dispatches")
	}
	for _, w := range cst.Workers {
		if w.ID == "victim" {
			t.Fatalf("dead victim still in membership: %+v", cst.Workers)
		}
	}
}

// swapHandler is a stable front for a coordinator that can be replaced
// underneath it, so the workers keep their one URL across a restart.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (f *swapHandler) set(h http.Handler) { f.h.Store(&h) }
func (f *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*f.h.Load()).ServeHTTP(w, r)
}

// A coordinator killed mid-sweep — no drain, no replication — is
// replaced by a fresh one over the same store, and the resubmitted
// sweep's rows byte-equal a local run.  Points that completed before
// the kill come back from the stores: across both incarnations every
// point is simulated exactly once.
func TestCoordinatorRestartResubmitMatchesLocal(t *testing.T) {
	store := t.TempDir()
	cfg := server.CoordinatorConfig{HeartbeatTTL: 2 * time.Second}
	front := &swapHandler{}
	first := newCoordinator(t, cfg, store)
	front.set(first.Handler())
	ts := httptest.NewServer(front)
	t.Cleanup(ts.Close)

	var points []api.RunRequest
	late := map[string]bool{} // the second half: still running at the kill
	for i := 0; i < 8; i++ {
		points = append(points, creq(i))
		if i >= 4 {
			late[cspec(i).Key()] = true
		}
	}

	// One worker (with its own store) whose simulator holds the late
	// points until the first coordinator is dead.  The ring queue is
	// FIFO, so the early points are leased first and finish.
	var (
		mu   sync.Mutex
		sims = map[string]int{}
	)
	gate := make(chan struct{})
	worker := newWorkerDaemon(t, server.Config{Parallel: 4, StoreDir: t.TempDir()})
	worker.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		mu.Lock()
		sims[spec.Key()]++
		mu.Unlock()
		if late[spec.Key()] {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return harness.RunContext(ctx, spec)
	})
	startAgent(t, "w", ts.URL, worker)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := client.New(ts.URL)
	swept := make(chan error, 1)
	go func() {
		_, err := cl.Sweep(ctx, api.SweepRequest{Points: points})
		swept <- err
	}()
	for deadline := time.Now().Add(30 * time.Second); first.StoreStats().Puts < 4; {
		if time.Now().After(deadline) {
			t.Fatalf("first coordinator stored %d rows, want 4", first.StoreStats().Puts)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill: unplug the coordinator and cut every connection, including
	// the sweep's own.  A fresh coordinator takes over the address.
	second := newCoordinator(t, cfg, store)
	front.set(second.Handler())
	ts.CloseClientConnections()
	if err := <-swept; err == nil {
		t.Fatal("the sweep survived its coordinator's death")
	}
	// The client's pool may still hold a connection the kill cut; a POST
	// is never replayed on a dead one, so drop them before resubmitting.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	close(gate)

	st, err := cl.Sweep(ctx, api.SweepRequest{Points: points})
	if err != nil {
		t.Fatalf("resubmitted sweep: %v", err)
	}
	if st.Done != len(points) {
		t.Fatalf("resubmitted sweep finished done=%d failed=%d of %d", st.Done, st.Failed, st.Total)
	}
	local := newWorkerDaemon(t, server.Config{Parallel: 2})
	for i, p := range st.Points {
		rowsEqual(t, p.Row, localRow(t, local, points[i]), p.ID)
		if !late[cspec(i).Key()] && !p.Cached {
			t.Errorf("point %d completed before the kill but was not served from the store", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, p := range points {
		if n := sims[p.Spec.Key()]; n != 1 {
			t.Errorf("point %d simulated %d times across the restart, want 1", i, n)
		}
	}
	if hits := second.ClusterStatus().CacheHits; hits < 4 {
		t.Errorf("fresh coordinator answered %d points from its store, want >= 4", hits)
	}
}

// exploreReq is the compact 8-point search the cluster explore test
// runs: the same shape the daemon-side tests use.
func exploreReq() explore.Request {
	return explore.Request{
		App:        "fft",
		Scale:      0,
		Seed:       11,
		SeedPoints: 8,
		Width:      4,
		Space: explore.Space{
			Protocols:      []harness.ProtocolKind{harness.HLRC, harness.SC},
			CommSets:       []string{"A", "B"},
			CostSets:       []string{"O"},
			Procs:          []int{2, 4},
			HLRCUnitShifts: []uint{0},
			SCBlocks:       []int{0},
			DropPPMs:       []int64{0},
		},
	}
}

// An exploration submitted to the coordinator shards its candidate
// batches across the workers and converges on the same frontier a
// local search finds; a draining coordinator refuses to explore.
func TestClusterExplore(t *testing.T) {
	c := newCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}, t.TempDir())
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	for i, n := range []string{"w1", "w2"} {
		startAgent(t, n, ts.URL, newWorkerDaemon(t, server.Config{Parallel: 2 + i}))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cl := client.New(ts.URL)
	st, err := cl.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatalf("cluster explore: %v", err)
	}
	if st.State != api.StateDone || st.Stopped != "converged" {
		t.Fatalf("cluster explore = %s/%s (%s)", st.State, st.Stopped, st.Error)
	}
	if len(st.Frontier) == 0 {
		t.Fatal("cluster explore found nothing")
	}

	// The local reference: same request, fresh session.
	rep, err := explore.Run(ctx, exploreReq(),
		explore.SessionEvaluator{Ses: harness.NewSession(4)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cf, _ := json.Marshal(st.Frontier)
	lf, _ := json.Marshal(rep.Frontier)
	if !bytes.Equal(cf, lf) {
		t.Fatalf("cluster frontier differs from local:\n cluster %s\n local   %s", cf, lf)
	}

	// A draining coordinator refuses new explorations.
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cl.Retries = -1
	if _, err := cl.SubmitExplore(ctx, exploreReq()); client.StatusCode(err) != 503 {
		t.Fatalf("explore on a draining coordinator = %v, want 503", err)
	}
}
