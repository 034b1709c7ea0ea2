// Package server implements svmd, the experiment service: a long-lived
// HTTP/JSON daemon that executes simulation runs the way an inference
// server executes requests — admitted through a bounded queue,
// deduplicated against identical in-flight work, answered from a
// persistent content-addressed result store when warm, and observable
// through SSE progress events and a metrics endpoint.
//
// The daemon layers three caches, cheapest first:
//
//  1. The persistent store (internal/store), keyed by the stable
//     versioned RunSpec content key — survives restarts.
//  2. The in-process memoization pool (harness/runner) underneath the
//     session — deduplicates everything the daemon computed this
//     lifetime, including sequential baselines shared across requests.
//  3. Single-flight job coalescing at the HTTP layer — N identical
//     concurrent POSTs attach to one job and therefore one simulation.
//
// Admission control is explicit: when the bounded queue is full the
// daemon answers 429 with Retry-After rather than buffering without
// bound, and during drain it answers 503 while in-flight work finishes.
//
// The same Server is the cluster coordinator (Config.Coordinator): one
// job table and one lifecycle, with queued jobs placed on a
// consistent-hash ring of joined workers and leased to them over
// /cluster/lease instead of run by the local pool (coordinator.go).  A
// worker is an ordinary daemon running the lease agent (worker.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"swsm/internal/apps"
	"swsm/internal/harness"
	"swsm/internal/harness/runner"
	"swsm/internal/obs"
	"swsm/internal/server/api"
	"swsm/internal/store"

	// The daemon serves the full application suite.
	_ "swsm/internal/apps/barnes"
	_ "swsm/internal/apps/fft"
	_ "swsm/internal/apps/lu"
	_ "swsm/internal/apps/ocean"
	_ "swsm/internal/apps/radix"
	_ "swsm/internal/apps/raytrace"
	_ "swsm/internal/apps/volrend"
	_ "swsm/internal/apps/water"
)

// Version identifies the service wire protocol; it is reported by
// /healthz and is independent of harness.KeyVersion.
const Version = "svmd/1"

// Config parameterizes a Server.
type Config struct {
	// Parallel bounds concurrently executing simulations (0 = one per
	// CPU, via the harness session default).
	Parallel int
	// QueueDepth bounds admitted-but-not-running jobs; a full queue
	// rejects submissions with 429 (0 = 4x the worker count).
	QueueDepth int
	// StoreDir is the persistent result store's directory ("" disables
	// persistence — useful in tests, pointless in production).
	StoreDir string
	// StoreMaxBytes bounds the store's payload bytes (0 = store default).
	StoreMaxBytes int64
	// Logger receives the daemon's structured job and service logs (nil
	// disables service logging entirely; the instrumented paths are
	// nil-checked, never defaulted to a discarding handler).
	Logger *slog.Logger
	// SLO is the per-job execution-latency objective.  A job whose
	// wall-clock execution exceeds it counts an svmd_slo_breaches_total
	// and triggers a flight-recorder dump (0 disables the check).
	SLO time.Duration
	// DebugDir receives flight-recorder dumps — the last-N lifecycle
	// records plus a short CPU profile, written when a job fails or
	// breaches the SLO.  "" disables dumping to disk; the in-memory ring
	// still records.
	DebugDir string
	// Coordinator, when set, makes the server a cluster coordinator:
	// queued jobs go to joined workers instead of the local pool, and
	// QueueDepth bounds each worker's dispatch queue (0 = 64).
	Coordinator *CoordinatorConfig
}

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrDraining rejects submissions while the daemon drains (503).
	ErrDraining = errors.New("server draining")
	// ErrQueueFull rejects submissions when the admission queue is at
	// capacity (429 + Retry-After).
	ErrQueueFull = errors.New("job queue full")
)

// job is one scheduled simulation (or store lookup).  Mutable fields
// are guarded by Server.mu; done is closed exactly once when the job
// reaches a terminal state.
type job struct {
	id   string
	key  string // spec content key (store address)
	ckey string // coalescing key (content key + request shape)
	req  api.RunRequest

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	state    string
	cached   bool
	row      *harness.RunRow
	err      error
	watchers int  // wait=1 requests currently parked on done
	detached bool // survives watcher disconnects (async submit, sweeps)
	enqueued time.Time
	started  time.Time
	wall     time.Duration
	spans    *obs.Spans // wall-clock lifecycle spans (queue/sim/store/respond)

	// Coordinator placement: the worker the job is queued on, leased to
	// or was executed by ("" = unassigned, or a daemon's local job).
	worker       string
	leaseUntil   time.Time
	redispatches int

	sweeps []*sweepState
}

func (j *job) terminal() bool {
	switch j.state {
	case api.StateDone, api.StateFailed, api.StateCanceled:
		return true
	}
	return false
}

type sweepState struct {
	id   string
	jobs []*job
}

// Server is the experiment service.  Construct with New, serve
// Handler(), stop with Drain.
type Server struct {
	cfg    Config
	ses    *harness.Session
	st     *store.Store
	bus    *eventBus
	met    *svmdMetrics
	log    *slog.Logger // nil = service logging disabled
	flight *obs.Flight
	disp   *dispatcher // non-nil on a coordinator
	// runFn executes one spec; tests substitute it to make scheduling
	// behavior (backpressure, cancellation) deterministic.
	runFn func(context.Context, harness.RunSpec) (*harness.Result, error)

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu          sync.Mutex
	jobs        map[string]*job
	inflight    map[string]*job // coalescing key -> queued/running job
	sweeps      map[string]*sweepState
	explores    map[string]*exploration // explore.go
	stateCount  map[string]int
	nextJob     int64
	nextSweep   int64
	nextExplore int64
	exploring   int // explorations running
	draining    bool

	queue chan *job
	wg    sync.WaitGroup // pool workers (daemon) or the janitor (coordinator)
	live  sync.WaitGroup // jobs and explorations not yet terminal; Drain waits on it
	start time.Time
}

// New builds a Server and starts its workers (on a coordinator, the
// janitor that detects lost workers and expired leases).
func New(cfg Config) (*Server, error) {
	ses := harness.NewSession(cfg.Parallel)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * ses.Parallelism()
		if cfg.Coordinator != nil {
			cfg.QueueDepth = defaultWorkerQueue
		}
	}
	var st *store.Store
	if cfg.StoreDir != "" {
		var err error
		if st, err = store.Open(cfg.StoreDir, cfg.StoreMaxBytes); err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	met := newSvmdMetrics(start)
	s := &Server{
		cfg:        cfg,
		ses:        ses,
		st:         st,
		bus:        newEventBus(met.sseEvents, met.sseDropped),
		met:        met,
		log:        cfg.Logger,
		flight:     obs.NewFlight(obs.DefaultFlightRecords, cfg.DebugDir, time.Second),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		sweeps:     make(map[string]*sweepState),
		explores:   make(map[string]*exploration),
		stateCount: make(map[string]int),
		queue:      make(chan *job, cfg.QueueDepth),
		start:      start,
	}
	met.registerServer(s)
	ses.SetObserver(met)
	if st != nil {
		st.SetLogger(cfg.Logger)
	}
	s.runFn = func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		return s.ses.RunCtx(ctx, spec)
	}
	if cfg.Coordinator != nil {
		s.startDispatcher(*cfg.Coordinator)
		return s, nil
	}
	for i := 0; i < ses.Parallelism(); i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.exec(j)
			}
		}()
	}
	return s, nil
}

// RunnerStats exposes the in-process memoization counters (simulations
// actually executed, memo hits, coalesced waits).
func (s *Server) RunnerStats() runner.Stats { return s.ses.Stats() }

// StoreStats exposes the persistent store's counters (zero value when
// persistence is disabled).
func (s *Server) StoreStats() store.Stats {
	if s.st == nil {
		return store.Stats{}
	}
	return s.st.Stats()
}

// ValidateRequest rejects requests the daemon cannot (or will not)
// serve before they consume a queue slot — on a coordinator, before a
// bad spec is dispatched to a worker.
func ValidateRequest(req api.RunRequest) error {
	spec := req.Spec
	if _, err := apps.Lookup(spec.App); err != nil {
		return err
	}
	switch spec.Protocol {
	case harness.HLRC, harness.LRC, harness.SC, harness.Ideal:
	default:
		return fmt.Errorf("unknown protocol %q", spec.Protocol)
	}
	if spec.Procs < 1 || spec.Procs > 64 {
		return fmt.Errorf("procs %d outside [1, 64]", spec.Procs)
	}
	if spec.Scale < apps.Tiny || spec.Scale > apps.Large {
		return fmt.Errorf("unknown scale %d", spec.Scale)
	}
	if err := spec.Comm.Validate(); err != nil {
		return err
	}
	if err := spec.Fault.Validate(); err != nil {
		return err
	}
	if err := spec.Hetero.Validate(); err != nil {
		return err
	}
	if spec.Trace {
		return errors.New("traced runs are not served remotely: trace capture is an in-process artifact (run svmsim -trace locally)")
	}
	return nil
}

// SetRunFunc substitutes the function that executes one spec (the
// default runs it through the memoized session).  Tests use it to make
// execution latency deterministic — install it before the server
// receives traffic.
func (s *Server) SetRunFunc(fn func(context.Context, harness.RunSpec) (*harness.Result, error)) {
	s.runFn = fn
}

// Execute runs one request end-to-end through the daemon's normal
// admission path — store probe, memoized session, single-flight
// coalescing, write-back, metrics and SSE events — and returns the
// terminal row.  It is the entry point the cluster worker agent uses to
// run leased jobs on the local engine: a leased job is indistinguishable
// from a locally submitted one, so the worker's persistent store warms
// exactly as if the spec had been requested directly (that store is the
// cluster's distributed cache tier).  The job is detached: ctx
// cancellation abandons the wait, not the job.
func (s *Server) Execute(ctx context.Context, req api.RunRequest) (*harness.RunRow, bool, error) {
	j, _, err := s.submit(req, true)
	if err != nil {
		return nil, false, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, false, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state == api.StateDone {
		return j.row, j.cached, nil
	}
	if j.err != nil {
		return nil, false, j.err
	}
	return nil, false, fmt.Errorf("job %s terminal in state %s without error", j.id, j.state)
}

// submit admits a request: coalesce onto an identical in-flight job, or
// create and enqueue a new one (created reports which).  detached jobs
// survive watcher disconnects (async submissions, sweep points).
func (s *Server) submit(req api.RunRequest, detached bool) (j *job, created bool, err error) {
	key := req.Spec.Key()
	ckey := key
	if req.Speedup {
		ckey += "+speedup"
	}
	hit := s.storeTierHit(ckey, req)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if j, ok := s.inflight[ckey]; ok {
		if detached {
			j.detached = true
		}
		s.met.coalesced.Inc()
		return j, false, nil
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j = &job{
		key: key, ckey: ckey, req: req,
		ctx: ctx, cancel: cancel,
		done:     make(chan struct{}),
		state:    api.StateQueued,
		detached: detached,
		enqueued: time.Now(),
		spans:    obs.NewSpans(),
	}
	if hit == nil {
		if err := s.enqueueLocked(j); err != nil {
			cancel()
			return nil, false, err
		}
	}
	s.nextJob++
	j.id = fmt.Sprintf("j%d", s.nextJob)
	// Annotate the job context for the layers below: every log line the
	// scheduler, harness, store or transport emits on behalf of this job
	// carries its ID.  A worker dequeuing j blocks on s.mu (held here)
	// before reading j.ctx, so the late annotation is safe.
	j.ctx = obs.WithJob(j.ctx, j.id)
	if s.log != nil {
		j.ctx = obs.WithLogger(j.ctx, s.log)
		s.log.LogAttrs(j.ctx, slog.LevelInfo, "job queued",
			slog.String("app", req.Spec.App),
			slog.String("protocol", string(req.Spec.Protocol)),
			slog.Int("procs", req.Spec.Procs),
			slog.Bool("speedup", req.Speedup),
			slog.Int("queueDepth", len(s.queue)))
	}
	s.met.created.Inc()
	s.flight.Record(j.id, api.StateQueued, req.Spec.App+"/"+string(req.Spec.Protocol))
	s.jobs[j.id] = j
	s.inflight[ckey] = j
	s.stateCount[api.StateQueued]++
	s.live.Add(1)
	s.bus.Publish(api.Event{Type: "jobQueued", Job: statusLocked(j)})
	if hit != nil {
		s.disp.met.coordHits.Inc()
		s.finishLocked(j, hit, true, nil)
	}
	return j, true, nil
}

// enqueueLocked hands a new job to whatever runs queued work: the local
// pool's bounded channel on a daemon, the ring's worker queues on a
// coordinator.  Both refuse with ErrQueueFull rather than buffer.
func (s *Server) enqueueLocked(j *job) error {
	if s.disp != nil {
		return s.placeLocked(j, false)
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return ErrQueueFull
	}
}

// exec runs one job on a worker: store lookup, then simulation through
// the memoized session, then store write-back.
func (s *Server) exec(j *job) {
	s.mu.Lock()
	if j.state != api.StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil {
		s.finishLocked(j, nil, false, err)
		s.mu.Unlock()
		return
	}
	s.startLocked(j)
	s.mu.Unlock()

	row, cached, err := s.resolve(j.ctx, j.req.Spec, j.spans, "")
	if err == nil && j.req.Speedup {
		spec := j.req.Spec
		var base *harness.RunRow
		base, _, err = s.resolve(j.ctx,
			harness.BaselineSpec(spec.App, spec.Scale, spec.CacheEnabled), j.spans, "baseline.")
		if err == nil {
			r := row.WithSpeedup(base.Cycles)
			row = &r
		}
	}

	s.mu.Lock()
	j.wall = time.Since(j.started)
	s.finishLocked(j, row, cached, err)
	s.mu.Unlock()
	s.observeTerminal(j)
}

// startLocked moves a queued job to running: picked up by a pool worker
// on a daemon, leased to a worker on a coordinator.  Caller holds s.mu.
func (s *Server) startLocked(j *job) {
	s.setStateLocked(j, api.StateRunning)
	j.started = time.Now()
	j.spans.Add(obs.SpanQueue, j.enqueued, j.started)
	s.met.queueWait.Observe(j.started.Sub(j.enqueued).Seconds())
	s.flight.Record(j.id, api.StateRunning, j.worker)
	s.bus.Publish(api.Event{Type: "jobStarted", Job: statusLocked(j)})
}

// observeTerminal runs the post-terminal observability work that must
// not hold s.mu: latency accounting against the SLO, the per-job
// outcome log line, and (on failure or SLO breach) an async
// flight-recorder dump.  j is terminal, so its fields are stable.
func (s *Server) observeTerminal(j *job) {
	s.met.runDur.Observe(j.wall.Seconds())
	breach := s.cfg.SLO > 0 && j.wall > s.cfg.SLO
	if breach {
		s.met.sloBreaches.Inc()
	}
	if s.log != nil {
		lvl, msg := slog.LevelInfo, "job "+j.state
		if j.state == api.StateFailed {
			lvl = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("state", j.state),
			slog.Duration("wall", j.wall),
			slog.Bool("cached", j.cached),
		}
		if j.worker != "" {
			attrs = append(attrs, slog.String("worker", j.worker))
		}
		if j.err != nil {
			attrs = append(attrs, slog.String("error", j.err.Error()))
		}
		if breach {
			attrs = append(attrs, slog.Duration("slo", s.cfg.SLO))
		}
		s.log.LogAttrs(j.ctx, lvl, msg, attrs...)
	}
	if j.state == api.StateFailed || breach {
		reason := "job failed"
		if j.state != api.StateFailed {
			reason = "slo breach"
		}
		go func() {
			if path, _ := s.flight.Dump(reason, j.id); path != "" {
				s.met.flightDumps.Inc()
				if s.log != nil {
					s.log.LogAttrs(j.ctx, slog.LevelInfo, "flight recorder dumped",
						slog.String("path", path), slog.String("reason", reason))
				}
			}
		}()
	}
}

// resolve produces the row for one spec: persistent store first, then
// the memoized session, writing fresh results back to the store.  Each
// stage is timed into the job's span recorder (names prefixed for the
// speedup baseline's second resolve) and the store histograms.
func (s *Server) resolve(ctx context.Context, spec harness.RunSpec, sp *obs.Spans, prefix string) (*harness.RunRow, bool, error) {
	key := spec.Key()
	if s.st != nil {
		t0 := time.Now()
		payload, ok := s.st.Get(key)
		s.met.storeGet.ObserveSince(t0)
		sp.Add(prefix+obs.SpanStoreGet, t0, time.Now())
		if ok {
			var row harness.RunRow
			// A decodable row whose spec disagrees with the requested one
			// would mean a key collision or encoder drift; recompute.
			if err := json.Unmarshal(payload, &row); err == nil && row.Spec == spec {
				return &row, true, nil
			}
		}
	}
	t0 := time.Now()
	res, err := s.runFn(ctx, spec)
	sp.Add(prefix+obs.SpanSim, t0, time.Now())
	if err != nil {
		return nil, false, err
	}
	row := harness.NewRunRow(res)
	if s.st != nil {
		if payload, err := json.Marshal(row); err == nil {
			// Store damage must not fail the run; the next daemon just
			// recomputes.
			t0 := time.Now()
			_ = s.st.Put(key, payload)
			s.met.storePut.ObserveSince(t0)
			sp.Add(prefix+obs.SpanStorePut, t0, time.Now())
		}
	}
	return &row, false, nil
}

// finishLocked moves a job to its terminal state, publishes the
// transition and unparks watchers.  Caller holds s.mu.
func (s *Server) finishLocked(j *job, row *harness.RunRow, cached bool, err error) {
	respond := time.Now()
	switch {
	case err == nil:
		j.row = row
		j.cached = cached
		s.setStateLocked(j, api.StateDone)
		s.met.jobsDone.Inc()
		if row != nil {
			if n, ok := row.Counters["retransmits"]; ok && n > 0 {
				s.met.retransmits.Add(n)
				s.met.jobRetrans.Observe(float64(n))
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.err = err
		s.setStateLocked(j, api.StateCanceled)
		s.met.jobsCanceled.Inc()
	default:
		j.err = err
		s.setStateLocked(j, api.StateFailed)
		s.met.jobsFailed.Inc()
	}
	msg := ""
	if j.err != nil {
		msg = j.err.Error()
	}
	s.flight.Record(j.id, j.state, msg)
	delete(s.inflight, j.ckey)
	j.cancel()
	close(j.done)
	s.live.Done()
	typ := map[string]string{
		api.StateDone:     "jobDone",
		api.StateFailed:   "jobFailed",
		api.StateCanceled: "jobCanceled",
	}[j.state]
	s.bus.Publish(api.Event{Type: typ, Job: statusLocked(j)})
	for _, sw := range j.sweeps {
		s.bus.Publish(api.Event{Type: "sweepProgress", Sweep: sweepStatusLocked(sw, false)})
	}
	j.spans.Add(obs.SpanRespond, respond, time.Now())
}

// cancelLocked cancels a queued job immediately; a running job has its
// context cancelled and reaches a terminal state through exec.  On a
// coordinator a leased job is cancelled immediately too: nothing can
// interrupt its worker, so its eventual completion is discarded as a
// duplicate.  Caller holds s.mu; reports whether the job was still live.
func (s *Server) cancelLocked(j *job) bool {
	switch {
	case j.state == api.StateQueued, j.state == api.StateRunning && s.disp != nil:
		s.dequeueLocked(j)
		s.finishLocked(j, nil, false, context.Canceled)
		return true
	case j.state == api.StateRunning:
		j.cancel()
		return true
	}
	return false
}

func (s *Server) setStateLocked(j *job, state string) {
	s.stateCount[j.state]--
	j.state = state
	s.stateCount[state]++
}

// waitJob parks until the job finishes or the watcher's request
// context is cancelled.  A queued job abandoned by its last watcher is
// cancelled — the client that wanted it is gone — unless it is detached.
func (s *Server) waitJob(ctx context.Context, j *job) error {
	s.mu.Lock()
	j.watchers++
	s.mu.Unlock()
	select {
	case <-j.done:
		s.mu.Lock()
		j.watchers--
		s.mu.Unlock()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		j.watchers--
		if j.watchers == 0 && !j.detached && j.state == api.StateQueued {
			s.cancelLocked(j)
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// statusLocked snapshots a job.  Caller holds s.mu.
func statusLocked(j *job) *api.RunStatus {
	st := &api.RunStatus{
		ID: j.id, Key: j.key, State: j.state, Cached: j.cached, Row: j.row,
		Worker: j.worker,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.wall > 0 {
		st.WallMS = j.wall.Milliseconds()
	}
	return st
}

func sweepStatusLocked(sw *sweepState, includePoints bool) *api.SweepStatus {
	st := &api.SweepStatus{ID: sw.id, Total: len(sw.jobs)}
	for _, j := range sw.jobs {
		switch j.state {
		case api.StateDone:
			st.Done++
		case api.StateFailed, api.StateCanceled:
			st.Failed++
		}
		if includePoints {
			st.Points = append(st.Points, *statusLocked(j))
		}
	}
	return st
}

// Metrics snapshots the daemon's observable state.
func (s *Server) Metrics() api.Metrics {
	s.mu.Lock()
	jobs := make(map[string]int, len(s.stateCount))
	for k, v := range s.stateCount {
		if v != 0 {
			jobs[k] = v
		}
	}
	m := api.Metrics{
		UptimeSec:  time.Since(s.start).Seconds(),
		Draining:   s.draining,
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		InFlight:   s.stateCount[api.StateRunning],
		Workers:    s.ses.Parallelism(),
		Jobs:       jobs,
	}
	s.mu.Unlock()
	m.Store = s.StoreStats()
	m.StoreHitRatio = m.Store.HitRatio()
	m.Runner = s.RunnerStats()
	m.Process = obs.ReadProcess(s.start)
	return m
}

// Drain gracefully stops the daemon: new submissions are rejected with
// ErrDraining, running explorations are canceled (their drivers unpark
// promptly; the point jobs they already queued drain like any other
// job), queued and running jobs finish normally, and if ctx
// expires first the remaining job contexts are cancelled (queued work
// aborts; a simulation that already started completes and is stored;
// a coordinator cancels the jobs its workers have not reported).
// Drain returns once every job and exploration is terminal and the
// workers have exited; the store needs no explicit flush — every Put is
// already durable via temp-file + rename.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	if !already {
		s.draining = true
		close(s.queue)
		// In the same critical section, so no exploration can meet a
		// draining scheduler before its context is canceled.
		for _, x := range s.explores {
			x.cancel()
		}
	}
	s.mu.Unlock()
	if already {
		return errors.New("server: already draining")
	}
	s.bus.Publish(api.Event{Type: "drain"})

	done := make(chan struct{})
	go func() { s.live.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	s.wg.Wait()
	s.bus.Close()
	return err
}
