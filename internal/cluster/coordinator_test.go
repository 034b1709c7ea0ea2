package cluster_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"swsm/internal/apps"
	"swsm/internal/cluster"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
	"swsm/internal/sim"
)

// These tests drive a coordinator (a server.Server in coordinator mode)
// through its HTTP API, playing the workers' side of the lease protocol
// by hand.

// cspec is the i-th canonical fast test point: fft at Tiny scale, with
// the processor count cycling through fft-legal powers of two and the
// host overhead nudged so every index yields a distinct content key.
func cspec(i int) harness.RunSpec {
	spec := harness.DefaultSpec("fft", harness.HLRC)
	spec.Scale = apps.Tiny
	spec.Procs = 1 << (i % 3)
	spec.Comm.HostOverhead += sim.Time(i / 3)
	return spec
}

func creq(i int) api.RunRequest { return api.RunRequest{Spec: cspec(i)} }

// crow fabricates a plausible result row for protocol-level tests that
// never touch a real simulator.
func crow(i int) *harness.RunRow {
	spec := cspec(i)
	return &harness.RunRow{Key: spec.Key(), Spec: spec, Cycles: int64(1000 + i)}
}

// newCoordinator builds a coordinator over storeDir ("" = no store),
// drained at test cleanup.  Jobs no worker will finish are cancelled
// when the short drain window lapses.
func newCoordinator(t *testing.T, cfg server.CoordinatorConfig, storeDir string) *server.Server {
	t.Helper()
	c, err := server.New(server.Config{StoreDir: storeDir, Coordinator: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		c.Drain(ctx)
	})
	return c
}

// newTestCoordinator serves a coordinator over HTTP and returns it with
// a client for it.
func newTestCoordinator(t *testing.T, cfg server.CoordinatorConfig, storeDir string) (*server.Server, *client.Client) {
	t.Helper()
	c := newCoordinator(t, cfg, storeDir)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, client.New(ts.URL)
}

func mustSubmit(t *testing.T, cl *client.Client, req api.RunRequest) *api.RunStatus {
	t.Helper()
	st, err := cl.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func mustLease(t *testing.T, cl *client.Client, req api.ClusterLeaseRequest) []api.ClusterLeasedJob {
	t.Helper()
	resp, err := cl.Lease(context.Background(), req)
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	return resp.Jobs
}

func mustGet(t *testing.T, cl *client.Client, id string) *api.RunStatus {
	t.Helper()
	st, err := cl.Get(context.Background(), id, false)
	if err != nil {
		t.Fatalf("get %s: %v", id, err)
	}
	return st
}

// A submission with no workers parks unassigned; the first lease poll
// registers the worker, drains the backlog onto it, and grants the job
// — the exact sequence a freshly restarted coordinator goes through.
func TestCoordinatorUnassignedThenLease(t *testing.T) {
	c, cl := newTestCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}, "")
	ctx := context.Background()
	j := mustSubmit(t, cl, creq(2))
	if st := c.ClusterStatus(); st.Unassigned != 1 {
		t.Fatalf("unassigned = %d, want 1", st.Unassigned)
	}
	jobs := mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 2})
	if len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("lease = %+v, want the one unassigned job", jobs)
	}
	if jobs[0].Stolen {
		t.Fatal("own-queue grant marked stolen")
	}

	done := api.ClusterCompleteRequest{WorkerID: "a", JobID: j.ID, Key: jobs[0].Key, Row: crow(2)}
	ack, err := cl.Complete(ctx, done)
	if err != nil || ack.Duplicate {
		t.Fatalf("complete: %+v err=%v", ack, err)
	}
	st, err := cl.Get(ctx, j.ID, true)
	if err != nil {
		t.Fatalf("wait after complete: %v", err)
	}
	if st.State != api.StateDone || st.Row == nil || st.Worker != "a" {
		t.Fatalf("job after complete: state=%s worker=%s", st.State, st.Worker)
	}

	// Completion is idempotent: a second report acks as a duplicate.
	ack, err = cl.Complete(ctx, done)
	if err != nil || !ack.Duplicate {
		t.Fatalf("duplicate complete: %+v err=%v", ack, err)
	}
	if st := c.ClusterStatus(); st.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", st.Duplicates)
	}
	// Unknown jobs are rejected distinctly (the worker drops the result).
	_, err = cl.Complete(ctx, api.ClusterCompleteRequest{WorkerID: "a", JobID: "j999"})
	if client.StatusCode(err) != 404 {
		t.Fatalf("unknown-job complete err = %v, want 404", err)
	}
}

// Identical live submissions coalesce onto one job.
func TestCoordinatorCoalesce(t *testing.T) {
	_, cl := newTestCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}, "")
	j1 := mustSubmit(t, cl, creq(3))
	j2 := mustSubmit(t, cl, creq(3))
	if j1.ID != j2.ID {
		t.Fatalf("identical submissions got distinct jobs %s and %s", j1.ID, j2.ID)
	}
}

// An idle worker steals from the tail of a backlogged one, and the
// grant is flagged so the victim's Stolen counter accounts for it.
func TestCoordinatorSteal(t *testing.T) {
	c, cl := newTestCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}, "")
	mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 1})
	mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "b", Slots: 1})

	// Pick points until worker a owns at least 3 keys (placement is the
	// deterministic ring function, so the test can precompute homes).
	ring := cluster.NewRing(0)
	ring.Add("a")
	ring.Add("b")
	aOwned := 0
	for procs := 1; aOwned < 3 && procs < 64; procs++ {
		mustSubmit(t, cl, creq(procs))
		if ring.Lookup(cspec(procs).Key()) == "a" {
			aOwned++
		}
	}
	if aOwned < 3 {
		t.Fatal("could not construct 3 keys homed on worker a")
	}

	// a leases one job: now busy (leased >= slots) with a backlog.
	if got := mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 1, Max: 1}); len(got) != 1 {
		t.Fatalf("a lease = %+v", got)
	}
	// b drains its own queue first, then steals a's tail.
	stolen := 0
	jobs := mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "b", Slots: 1, Max: 100})
	for _, lj := range jobs {
		if lj.Stolen {
			stolen++
		}
	}
	if stolen == 0 {
		t.Fatalf("b leased %d jobs, none stolen from backlogged a", len(jobs))
	}
	for _, w := range c.ClusterStatus().Workers {
		if w.ID == "a" && w.Stolen != int64(stolen) {
			t.Fatalf("a.Stolen = %d, want %d", w.Stolen, stolen)
		}
		if w.ID == "a" && w.Queued != 0 {
			t.Fatalf("a still has %d queued after steal", w.Queued)
		}
	}
}

// An expired lease re-dispatches the job; a lease renewed by polls
// does not expire.
func TestCoordinatorLeaseExpiry(t *testing.T) {
	const ttl = 300 * time.Millisecond
	c, cl := newTestCoordinator(t, server.CoordinatorConfig{
		LeaseTTL:     ttl,
		HeartbeatTTL: 10 * time.Second, // keep the worker alive; only the lease lapses
	}, "")
	mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2})
	j := mustSubmit(t, cl, creq(2))
	if got := mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 1}); len(got) != 1 {
		t.Fatalf("lease = %+v", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.ClusterStatus().Redispatches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired lease never re-dispatched")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := mustGet(t, cl, j.ID); st.State != api.StateQueued {
		t.Fatalf("after expiry: state=%s", st.State)
	}
	if st := c.ClusterStatus(); st.Redispatches != 1 {
		t.Fatalf("Redispatches = %d, want 1", st.Redispatches)
	}
	// The job is schedulable again.
	if got := mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 1}); len(got) != 1 || got[0].ID != j.ID {
		t.Fatalf("re-lease = %+v", got)
	}
	// A held lease is renewed by polls and does NOT expire, however long
	// the polls go on.
	for end := time.Now().Add(2 * ttl); time.Now().Before(end); {
		time.Sleep(ttl / 6)
		mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Held: []string{j.ID}})
	}
	if st := mustGet(t, cl, j.ID); st.State != api.StateRunning {
		t.Fatalf("renewed lease still expired: state=%s", st.State)
	}
}

// The coordinator's own store is the top cache tier: a spec completed
// once is answered on resubmission without dispatching anything.
func TestCoordinatorStoreTier(t *testing.T) {
	c, cl := newTestCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}, t.TempDir())
	mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2})
	j1 := mustSubmit(t, cl, creq(4))
	jobs := mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 2, Max: 1})
	if len(jobs) != 1 {
		t.Fatalf("lease = %+v", jobs)
	}
	if _, err := cl.Complete(context.Background(), api.ClusterCompleteRequest{
		WorkerID: "a", JobID: j1.ID, Key: jobs[0].Key, Row: crow(4),
	}); err != nil {
		t.Fatal(err)
	}

	j2 := mustSubmit(t, cl, creq(4))
	if j2.ID == j1.ID {
		t.Fatal("resubmission coalesced onto the finished job")
	}
	if j2.State != api.StateDone || !j2.Cached || j2.Row == nil {
		t.Fatalf("resubmit not served from store: state=%s cached=%v", j2.State, j2.Cached)
	}
	if j2.Row.Cycles != crow(4).Cycles {
		t.Fatalf("cached row cycles = %d, want %d", j2.Row.Cycles, crow(4).Cycles)
	}
	st := c.ClusterStatus()
	if st.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st.CacheHits)
	}
	for _, w := range st.Workers {
		if w.Queued != 0 {
			t.Fatalf("cache hit still dispatched: %+v", w)
		}
	}
}

// A restarted coordinator reuses job IDs.  A worker still holding the
// previous incarnation's j1 must not be able to finish the new j1 — a
// different spec — with its row, nor write that row to the store.
func TestCoordinatorRejectsStaleCompletion(t *testing.T) {
	store := t.TempDir()
	cfg := server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}
	ctx := context.Background()

	_, clA := newTestCoordinator(t, cfg, store)
	mustLease(t, clA, api.ClusterLeaseRequest{WorkerID: "w", Slots: 1})
	old := mustSubmit(t, clA, creq(1))
	oldJobs := mustLease(t, clA, api.ClusterLeaseRequest{WorkerID: "w", Slots: 1, Max: 1})
	if len(oldJobs) != 1 {
		t.Fatalf("lease from the first coordinator = %+v", oldJobs)
	}

	b, clB := newTestCoordinator(t, cfg, store)
	mustLease(t, clB, api.ClusterLeaseRequest{WorkerID: "w", Slots: 1})
	cur := mustSubmit(t, clB, creq(2))
	if cur.ID != old.ID {
		t.Fatalf("fresh coordinator numbered its first job %s, want %s", cur.ID, old.ID)
	}
	curJobs := mustLease(t, clB, api.ClusterLeaseRequest{WorkerID: "w", Slots: 1, Max: 1})
	if len(curJobs) != 1 || curJobs[0].Key == oldJobs[0].Key {
		t.Fatalf("lease from the fresh coordinator = %+v", curJobs)
	}

	// The worker finishes the old j1 and reports it to the fresh one.
	_, err := clB.Complete(ctx, api.ClusterCompleteRequest{
		WorkerID: "w", JobID: old.ID, Key: oldJobs[0].Key, Row: crow(1),
	})
	if client.StatusCode(err) != 404 {
		t.Fatalf("stale completion = %v, want 404", err)
	}
	if st := mustGet(t, clB, cur.ID); st.State != api.StateRunning || st.Row != nil {
		t.Fatalf("stale completion landed on %s: state=%s row=%+v", cur.ID, st.State, st.Row)
	}
	if puts := b.StoreStats().Puts; puts != 0 {
		t.Fatalf("stale completion wrote %d rows to the store", puts)
	}

	// The real completion still lands.
	if _, err := clB.Complete(ctx, api.ClusterCompleteRequest{
		WorkerID: "w", JobID: cur.ID, Key: curJobs[0].Key, Row: crow(2),
	}); err != nil {
		t.Fatal(err)
	}
	if st := mustGet(t, clB, cur.ID); st.State != api.StateDone || st.Row.Cycles != crow(2).Cycles {
		t.Fatalf("after the real completion: state=%s row=%+v", st.State, st.Row)
	}
}

// A wait=1 job whose last watcher leaves while it is still queued is
// cancelled, as on a daemon, and leaves its worker's dispatch queue.
func TestCoordinatorAbandonedWaitCancels(t *testing.T) {
	c, cl := newTestCoordinator(t, server.CoordinatorConfig{HeartbeatTTL: 10 * time.Second}, "")
	mustLease(t, cl, api.ClusterLeaseRequest{WorkerID: "a", Slots: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if st, err := cl.Run(ctx, creq(2)); err == nil {
		t.Fatalf("wait=1 returned %+v with no worker running the job", st)
	}
	for deadline := time.Now().Add(10 * time.Second); c.Metrics().Jobs[api.StateCanceled] != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned job never cancelled: %v", c.Metrics().Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, w := range c.ClusterStatus().Workers {
		if w.Queued != 0 {
			t.Fatalf("cancelled job still queued on %s", w.ID)
		}
	}
}
