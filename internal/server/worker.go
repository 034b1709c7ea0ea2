package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// WorkerConfig joins a daemon to a coordinator (RunWorker).
type WorkerConfig struct {
	// ID is the worker's stable identity.  Ring placement hashes it, so
	// it must survive restarts for the worker's store shard to keep
	// receiving the same keys.
	ID string
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// Poll is the lease-poll (and heartbeat) interval (0 = 200ms).
	Poll time.Duration
}

// heldJob names a leased job by ID and key: a restarted coordinator
// reuses IDs, so an ID alone can name two different jobs at once.
type heldJob struct{ id, key string }

// agent is the worker side of the lease protocol.
type agent struct {
	s    *Server
	id   string
	cl   *client.Client
	mu   sync.Mutex
	held map[heldJob]struct{}
}

// RunWorker plugs the daemon into a cluster until ctx is cancelled: it
// polls the coordinator for leases sized to the idle pool slots, runs
// each leased job through Execute — so the daemon's store and memo pool
// warm exactly as for local traffic; they are the cluster's distributed
// cache tier — and reports the terminal row.  The lease poll doubles as
// the heartbeat: a worker that stops polling is declared lost after the
// coordinator's heartbeat TTL and its jobs re-dispatched.  RunWorker
// returns once in-flight executions have stopped.
func (s *Server) RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.ID == "" || cfg.Coordinator == "" {
		return errors.New("server: a worker needs an ID and a coordinator URL")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 200 * time.Millisecond
	}
	a := &agent{s: s, id: cfg.ID, cl: client.New(cfg.Coordinator), held: make(map[heldJob]struct{})}
	a.cl.Retries = -1 // the poll loop is the retry policy
	// Best-effort: a lease poll registers the worker too, so a failed
	// join only delays the first lease by one poll.
	a.cl.Join(ctx, api.ClusterJoinRequest{WorkerID: a.id, Slots: s.ses.Parallelism()})
	var inflight sync.WaitGroup
	t := time.NewTicker(cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			inflight.Wait()
			return ctx.Err()
		case <-t.C:
			a.poll(ctx, &inflight)
		}
	}
}

// poll sends one lease request sized to the daemon's idle capacity and
// spawns an executor per granted job.
func (a *agent) poll(ctx context.Context, inflight *sync.WaitGroup) {
	slots := a.s.ses.Parallelism()
	held := a.heldIDs()
	// Leased-but-not-yet-simulating jobs occupy the daemon's queue, not
	// a pool slot; count whichever view is larger so local submissions
	// sharing the daemon are never starved by over-leasing.
	busy := max(len(held), a.s.ses.InFlight())
	resp, err := a.cl.Lease(ctx, api.ClusterLeaseRequest{
		WorkerID: a.id, Slots: slots, Max: max(slots-busy, 0), Held: held,
	})
	if err != nil {
		return // the coordinator is down or restarting; poll again
	}
	for _, lj := range resp.Jobs {
		h := heldJob{lj.ID, lj.Key}
		if !a.markHeld(h) {
			continue // duplicate grant (e.g. re-dispatch raced our renewal)
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer a.unmarkHeld(h)
			a.execute(ctx, lj)
		}()
	}
}

// execute runs one leased job on the local daemon and reports the
// result until the coordinator acknowledges or disowns it.
func (a *agent) execute(ctx context.Context, lj api.ClusterLeasedJob) {
	var (
		row    *harness.RunRow
		cached bool
		errMsg string
	)
	for {
		r, hit, err := a.s.Execute(ctx, lj.Req)
		if err == nil {
			row, cached = r, hit
			break
		}
		if ctx.Err() != nil {
			// Shutting down mid-execution: stop reporting; the lease
			// lapses and the job is re-dispatched elsewhere.
			return
		}
		if errors.Is(err, ErrQueueFull) {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return
			}
			continue
		}
		errMsg = err.Error()
		break
	}
	if a.s.log != nil {
		a.s.log.LogAttrs(ctx, slog.LevelInfo, "leased job executed",
			slog.String("job", lj.ID), slog.Bool("cached", cached),
			slog.Bool("stolen", lj.Stolen), slog.String("error", errMsg))
	}
	req := api.ClusterCompleteRequest{
		WorkerID: a.id, JobID: lj.ID, Key: lj.Key,
		Row: row, Cached: cached, Error: errMsg,
	}
	for {
		_, err := a.cl.Complete(ctx, req)
		if err == nil || ctx.Err() != nil {
			return
		}
		if client.StatusCode(err) == http.StatusNotFound {
			// The coordinator has no such job: it restarted and either
			// never admitted this one or reused its ID for another spec.
			// The row is safe in the local store either way.
			return
		}
		// Transport failure (the coordinator restarting): retry shortly.
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}

func (a *agent) heldIDs() []string {
	a.mu.Lock()
	ids := make([]string, 0, len(a.held))
	for h := range a.held {
		ids = append(ids, h.id)
	}
	a.mu.Unlock()
	sort.Strings(ids)
	return ids
}

func (a *agent) markHeld(h heldJob) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.held[h]; ok {
		return false
	}
	a.held[h] = struct{}{}
	return true
}

func (a *agent) unmarkHeld(h heldJob) {
	a.mu.Lock()
	delete(a.held, h)
	a.mu.Unlock()
}
