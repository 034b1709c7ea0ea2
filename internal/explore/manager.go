package explore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"swsm/internal/apps"
	"swsm/internal/obs"
)

// Submission errors, mapped to HTTP by the handlers in http.go.
var (
	// ErrLimit means too many explorations are already running (429).
	ErrLimit = errors.New("explore: too many active explorations")
	// ErrClosed means the manager has been shut down (503).
	ErrClosed = errors.New("explore: manager shut down")
	// ErrUnavailable wraps an admission-gate refusal (a draining
	// service — 503).
	ErrUnavailable = errors.New("explore: service unavailable")
	// ErrNotFound means no exploration has that ID (404).
	ErrNotFound = errors.New("explore: no such exploration")
)

// Exploration states (jobs are born running — the search driver starts
// immediately; admission control bounds concurrency instead of queuing).
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Status is an exploration's wire representation.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Req echoes the (defaulted, validated) request.
	App    string     `json:"app"`
	Scale  apps.Scale `json:"scale"`
	Seed   uint64     `json:"seed"`
	Budget int64      `json:"budget"`
	// Error is set for failed explorations.
	Error string `json:"error,omitempty"`
	// Stopped is the finished search's stop reason (see Report.Stopped).
	Stopped string `json:"stopped,omitempty"`
	// WallMS is the exploration's wall-clock duration, set on
	// completion.
	WallMS int64 `json:"wallMs,omitempty"`
	// Progress is the latest per-batch snapshot.  On frontier-update
	// events its NewPoints field carries the points just added;
	// elsewhere NewPoints is empty and Frontier holds the whole curve.
	Progress Progress `json:"progress"`
	// Frontier is the Pareto frontier discovered so far (complete on
	// terminal statuses).
	Frontier []Point `json:"frontier,omitempty"`
}

// Publisher receives exploration lifecycle events: eventType is one of
// the Event* constants, st a point-in-time status snapshot.
type Publisher func(eventType string, st *Status)

// Event types published by the manager (carried on the daemon's SSE
// channel with the status under the "explore" field).
const (
	EventStarted  = "exploreStarted"
	EventProgress = "exploreProgress"
	EventFrontier = "exploreFrontier"
	EventDone     = "exploreDone"
	EventFailed   = "exploreFailed"
	EventCanceled = "exploreCanceled"
)

// ManagerConfig configures a Manager.
type ManagerConfig struct {
	// Evaluator executes candidate batches (required).
	Evaluator Evaluator
	// Publish, if non-nil, receives lifecycle/progress events.
	Publish Publisher
	// Admit, if non-nil, is consulted before accepting a submission;
	// a non-nil error (wrapped in ErrUnavailable) refuses it — svmd
	// gates on draining.
	Admit func() error
	// Limit bounds concurrently running explorations (default 2).
	Limit int
	// Logger receives lifecycle logs (nil = logging disabled, the
	// daemon's usual convention).
	Logger *slog.Logger
}

// Manager owns the explorations of one daemon or coordinator: it
// admits requests, runs one search driver goroutine per exploration,
// tracks statuses for the HTTP surface, publishes SSE events, and
// exposes lifetime counters for /metrics.
type Manager struct {
	cfg ManagerConfig

	mu     sync.Mutex
	jobs   map[string]*expJob
	order  []*expJob
	nextID int64
	closed bool
	wg     sync.WaitGroup

	active, started, done, failed, canceled    atomic.Int64
	batches, evals, sims, cachedHits, frontier atomic.Int64
}

type expJob struct {
	id     string
	req    Request
	cancel context.CancelFunc
	done   chan struct{}

	// Guarded by Manager.mu.
	state    string
	err      error
	stopped  string
	prog     Progress
	frontier []Point
	start    time.Time
	wall     time.Duration
}

// NewManager creates a Manager.  Call Shutdown before discarding it.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Limit <= 0 {
		cfg.Limit = 2
	}
	return &Manager{cfg: cfg, jobs: make(map[string]*expJob)}
}

// Submit validates req, admits it against the concurrency limit and
// starts its search driver.  The returned status is the initial
// (running) snapshot.
func (m *Manager) Submit(req Request) (*Status, error) {
	req, err := req.WithDefaults()
	if err != nil {
		return nil, err
	}
	if m.cfg.Admit != nil {
		if aerr := m.cfg.Admit(); aerr != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnavailable, aerr)
		}
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if int(m.active.Load()) >= m.cfg.Limit {
		m.mu.Unlock()
		return nil, ErrLimit
	}
	m.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &expJob{
		id:     fmt.Sprintf("e%d", m.nextID),
		req:    req,
		cancel: cancel,
		done:   make(chan struct{}),
		state:  StateRunning,
		start:  time.Now(),
	}
	j.prog.Budget = req.Budget
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.active.Add(1)
	m.started.Add(1)
	m.wg.Add(1)
	st := m.statusLocked(j, nil)
	m.mu.Unlock()

	if m.cfg.Logger != nil {
		m.cfg.Logger.Info("explore started", "explore", j.id, "app", req.App,
			"scale", int(req.Scale), "seed", req.Seed, "budget", req.Budget)
	}
	m.publish(EventStarted, st)
	go m.drive(ctx, j)
	return st, nil
}

// drive runs one exploration to its terminal state.
func (m *Manager) drive(ctx context.Context, j *expJob) {
	defer m.wg.Done()
	rep, err := Run(ctx, j.req, m.cfg.Evaluator, func(p Progress) { m.onProgress(j, p) })

	m.mu.Lock()
	j.wall = time.Since(j.start)
	var event string
	switch {
	case err == nil:
		j.state = StateDone
		j.stopped = rep.Stopped
		j.frontier = rep.Frontier
		j.prog = Progress{
			Batches: rep.Batches, Evaluated: rep.Evaluated,
			SimsRun: rep.SimsRun, CachedHits: rep.CachedHits,
			Errors: rep.Errors, CostCycles: rep.CostCycles,
			SpentCycles: rep.SpentCycles, Budget: rep.Budget,
			FrontierSize: len(rep.Frontier),
		}
		if best := rep.Best(); best != nil {
			j.prog.BestSpeedup = best.Speedup
		}
		event = EventDone
		m.done.Add(1)
	case errors.Is(err, context.Canceled):
		j.state = StateCanceled
		j.err = err
		event = EventCanceled
		m.canceled.Add(1)
	default:
		j.state = StateFailed
		j.err = err
		event = EventFailed
		m.failed.Add(1)
	}
	st := m.statusLocked(j, nil)
	// Release the admission slot before unparking waiters, so a waiter
	// that immediately resubmits never sees a stale full limit.
	m.active.Add(-1)
	m.mu.Unlock()
	close(j.done)

	if m.cfg.Logger != nil {
		switch j.state {
		case StateDone:
			m.cfg.Logger.Info("explore done", "explore", j.id,
				"stopped", st.Stopped, "frontier", len(st.Frontier),
				"evaluated", st.Progress.Evaluated, "sims", st.Progress.SimsRun,
				"spentCycles", st.Progress.SpentCycles, "wallMs", st.WallMS)
		case StateCanceled:
			m.cfg.Logger.Info("explore canceled", "explore", j.id)
		default:
			m.cfg.Logger.Warn("explore failed", "explore", j.id, "err", err)
		}
	}
	m.publish(event, st)
}

// onProgress folds a per-batch snapshot into the job and publishes the
// progress (and, when the frontier advanced, frontier-update) events.
func (m *Manager) onProgress(j *expJob, p Progress) {
	m.mu.Lock()
	m.batches.Add(int64(p.Batches - j.prog.Batches))
	m.evals.Add(int64(p.Evaluated - j.prog.Evaluated))
	m.sims.Add(int64(p.SimsRun - j.prog.SimsRun))
	m.cachedHits.Add(int64(p.CachedHits - j.prog.CachedHits))
	m.frontier.Add(int64(len(p.NewPoints)))
	newPts := p.NewPoints
	p.NewPoints = nil
	j.prog = p
	j.frontier = append(j.frontier, newPts...)
	st := m.statusLocked(j, nil)
	var fst *Status
	if len(newPts) > 0 {
		fst = m.statusLocked(j, newPts)
	}
	m.mu.Unlock()

	m.publish(EventProgress, st)
	if fst != nil {
		m.publish(EventFrontier, fst)
	}
}

func (m *Manager) publish(eventType string, st *Status) {
	if m.cfg.Publish != nil {
		m.cfg.Publish(eventType, st)
	}
}

// statusLocked snapshots j.  Caller holds m.mu.
func (m *Manager) statusLocked(j *expJob, newPts []Point) *Status {
	st := &Status{
		ID:       j.id,
		State:    j.state,
		App:      j.req.App,
		Scale:    j.req.Scale,
		Seed:     j.req.Seed,
		Budget:   j.req.Budget,
		Stopped:  j.stopped,
		Progress: j.prog,
		Frontier: append([]Point{}, j.frontier...),
	}
	st.Progress.NewPoints = newPts
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.wall > 0 {
		st.WallMS = j.wall.Milliseconds()
	}
	return st
}

// Get returns an exploration's status snapshot.
func (m *Manager) Get(id string) (*Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return m.statusLocked(j, nil), nil
}

// List returns all explorations in submission order.
func (m *Manager) List() []*Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Status, 0, len(m.order))
	for _, j := range m.order {
		out = append(out, m.statusLocked(j, nil))
	}
	return out
}

// Wait blocks until the exploration reaches a terminal state or ctx is
// done, then returns its latest status.
func (m *Manager) Wait(ctx context.Context, id string) (*Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return m.Get(id)
}

// Cancel requests cancellation of a running exploration (no-op on
// terminal ones) and returns its current status.  The driver observes
// the cancellation at the next batch boundary; in-flight simulations
// complete and stay cached.
func (m *Manager) Cancel(id string) (*Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.cancel()
	return m.Get(id)
}

// Shutdown cancels every running exploration and waits for the drivers
// to exit.  Further submissions fail with ErrClosed.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	m.closed = true
	jobs := append([]*expJob{}, m.order...)
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	m.wg.Wait()
}

// RegisterMetrics exposes the manager's lifetime counters on reg as the
// svmd_explore_* family; svmd calls it against its own registry.
func RegisterMetrics(reg *obs.Registry, m *Manager) {
	reg.GaugeFunc("svmd_explore_active", "Explorations currently running.", "",
		func() float64 { return float64(m.active.Load()) })
	reg.CounterFunc("svmd_explore_total", "Explorations by terminal state.",
		`state="done"`, func() float64 { return float64(m.done.Load()) })
	reg.CounterFunc("svmd_explore_total", "Explorations by terminal state.",
		`state="failed"`, func() float64 { return float64(m.failed.Load()) })
	reg.CounterFunc("svmd_explore_total", "Explorations by terminal state.",
		`state="canceled"`, func() float64 { return float64(m.canceled.Load()) })
	reg.CounterFunc("svmd_explore_batches_total", "Candidate batches evaluated.", "",
		func() float64 { return float64(m.batches.Load()) })
	reg.CounterFunc("svmd_explore_evaluations_total", "Point evaluations by cache outcome.",
		`outcome="sim"`, func() float64 { return float64(m.sims.Load()) })
	reg.CounterFunc("svmd_explore_evaluations_total", "Point evaluations by cache outcome.",
		`outcome="cached"`, func() float64 { return float64(m.cachedHits.Load()) })
	reg.CounterFunc("svmd_explore_frontier_points_total", "Pareto frontier points discovered.", "",
		func() float64 { return float64(m.frontier.Load()) })
}
