package server

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"swsm/internal/cluster"
	"swsm/internal/harness"
	"swsm/internal/obs"
	"swsm/internal/server/api"
)

// This file is the coordinator's half of the job lifecycle: where a
// daemon hands a queued job to its local pool, a coordinator places it
// on the worker queue its content key hashes to and leases it to that
// worker over HTTP.  Workers pull: a join registers the node, a lease
// request doubles as the heartbeat and hands out queued jobs (the
// worker's own ring share first, then stolen stragglers), and a
// complete reports the terminal row, which finishes the job through
// the same finishLocked as a local run.
//
// Nothing here is replicated.  A coordinator that dies is restarted
// over the same store and the client resubmits: the simulator is
// deterministic and every store is content-addressed, so completed
// points come back from the stores and the rest recompute to the same
// bytes.

// Scheduling and failure-detection defaults.  Heartbeats ride on the
// workers' lease polls, so the TTL only needs to cover a few poll
// intervals; the lease TTL is long because a held lease is renewed on
// every poll — it only expires when the worker stops polling entirely.
const (
	DefaultHeartbeatTTL = 5 * time.Second
	DefaultLeaseTTL     = 60 * time.Second
	defaultWorkerQueue  = 64
)

// errUnknownJob rejects a completion for a job this coordinator does
// not have under that ID and key: one it never admitted, or a previous
// incarnation's job whose ID it has since reused (404; the worker drops
// the report).
var errUnknownJob = errors.New("unknown job")

// CoordinatorConfig tunes a coordinator's failure detection.
type CoordinatorConfig struct {
	// HeartbeatTTL is the silence after which a worker is declared lost
	// and its jobs re-dispatched (0 = DefaultHeartbeatTTL).
	HeartbeatTTL time.Duration
	// LeaseTTL bounds one lease grant; polls renew it (0 =
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
}

// dispatcher is a coordinator's scheduling state, guarded by Server.mu.
type dispatcher struct {
	cfg        CoordinatorConfig
	ring       *cluster.Ring
	workers    map[string]*workerState
	unassigned []*job
	gauged     map[string]bool // workers with per-worker gauge series
	met        *clusterMetrics
}

// workerState is one joined worker.
type workerState struct {
	id       string
	slots    int
	lastSeen time.Time
	queue    []*job          // dispatch queue (queued jobs placed here)
	leased   map[string]*job // running jobs held under lease
	done     int64
	stolen   int64 // jobs stolen FROM this worker
}

// clusterMetrics are the coordinator's svmd_cluster_* series, on the
// server's registry next to the svmd_jobs_* family every job feeds.
type clusterMetrics struct {
	coordHits    *obs.Counter // answered from the coordinator's own store
	workerHits   *obs.Counter // worker reported cached=true
	redispatches *obs.Counter
	duplicates   *obs.Counter

	stolen     *obs.CounterVec // jobs stolen BY a worker (the thief)
	workerDone *obs.CounterVec
	queueDepth *obs.GaugeVec
	leased     *obs.GaugeVec
}

// startDispatcher turns s into a coordinator and starts its janitor.
// Called once from New, before the server serves traffic.
func (s *Server) startDispatcher(cfg CoordinatorConfig) {
	if cfg.HeartbeatTTL <= 0 {
		cfg.HeartbeatTTL = DefaultHeartbeatTTL
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	reg := s.met.reg
	const hits = "Jobs answered from a cluster cache tier without simulating."
	s.disp = &dispatcher{
		cfg:     cfg,
		ring:    cluster.NewRing(0),
		workers: make(map[string]*workerState),
		gauged:  make(map[string]bool),
		met: &clusterMetrics{
			coordHits:    reg.Counter("svmd_cluster_cache_hits_total", hits, `tier="coordinator"`),
			workerHits:   reg.Counter("svmd_cluster_cache_hits_total", hits, `tier="worker"`),
			redispatches: reg.Counter("svmd_cluster_redispatches_total", "Jobs re-dispatched after a lost worker or an expired lease.", ""),
			duplicates:   reg.Counter("svmd_cluster_duplicate_completions_total", "Duplicate completions discarded idempotently.", ""),
			stolen:       reg.CounterVec("svmd_cluster_jobs_stolen_total", "Jobs stolen from another worker's queue, by thief.", "worker"),
			workerDone:   reg.CounterVec("svmd_cluster_worker_jobs_total", "Completions reported, by worker.", "worker"),
			queueDepth:   reg.GaugeVec("svmd_cluster_worker_queue_depth", "Dispatch-queue depth, by worker.", "worker"),
			leased:       reg.GaugeVec("svmd_cluster_worker_leased", "Jobs currently leased, by worker.", "worker"),
		},
	}
	locked := func(fn func() int) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(fn())
		}
	}
	reg.GaugeFunc("svmd_cluster_workers", "Live joined workers.", "",
		locked(func() int { return len(s.disp.workers) }))
	reg.GaugeFunc("svmd_cluster_unassigned_jobs", "Jobs waiting for any worker to join.", "",
		locked(func() int { return len(s.disp.unassigned) }))
	s.wg.Add(1)
	go s.janitor()
}

// storeTierHit probes a coordinator's own store, the top cache tier,
// before a job is dispatched: a row written back under the coalescing
// key answers the request without reaching a worker.  Daemons probe in
// exec instead, so this is nil there.
func (s *Server) storeTierHit(ckey string, req api.RunRequest) *harness.RunRow {
	// Has is a stat, Get decodes and checksums: only a likely hit pays
	// the full read.
	if s.disp == nil || s.st == nil || !s.st.Has(ckey) {
		return nil
	}
	payload, ok := s.st.Get(ckey)
	if !ok {
		return nil
	}
	var row harness.RunRow
	if json.Unmarshal(payload, &row) != nil || row.Spec != req.Spec {
		return nil
	}
	return &row
}

// placeLocked queues a job on a worker: the key's ring home first, then
// successors whose queues have room.  With force (re-dispatch paths,
// where dropping is not an option) or with no workers at all, the job
// parks on the unassigned list instead of erroring.
func (s *Server) placeLocked(j *job, force bool) error {
	d := s.disp
	for _, n := range d.ring.Successors(j.key, 0) {
		w := d.workers[n]
		if w == nil || len(w.queue) >= s.cfg.QueueDepth {
			continue
		}
		j.worker = n
		w.queue = append(w.queue, j)
		return nil
	}
	if force || len(d.workers) == 0 {
		if !force && len(d.unassigned) >= 4*s.cfg.QueueDepth {
			return ErrQueueFull
		}
		j.worker = ""
		d.unassigned = append(d.unassigned, j)
		return nil
	}
	return ErrQueueFull
}

// dequeueLocked detaches a job from whatever coordinator structure
// holds it (its worker's queue or lease table, or the unassigned list).
// A daemon's queue is a channel, which exec skips cancelled jobs of.
func (s *Server) dequeueLocked(j *job) {
	d := s.disp
	if d == nil {
		return
	}
	if j.worker != "" {
		if w := d.workers[j.worker]; w != nil {
			w.queue = remove(w.queue, j)
			delete(w.leased, j.id)
		}
		return
	}
	d.unassigned = remove(d.unassigned, j)
}

func remove(q []*job, j *job) []*job {
	for i, x := range q {
		if x == j {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// lease is the worker protocol's heart: register/refresh the worker,
// renew its held leases, then hand out jobs — its own ring share FIFO,
// then (if it still has idle slots) jobs stolen from the tail of the
// most backlogged other worker.
func (s *Server) lease(req api.ClusterLeaseRequest) api.ClusterLeaseResponse {
	now := time.Now()
	d := s.disp
	s.mu.Lock()
	w := s.ensureWorkerLocked(req.WorkerID, req.Slots, now)
	w.lastSeen = now
	if req.Slots > 0 {
		w.slots = req.Slots
	}
	for _, id := range req.Held {
		if j := w.leased[id]; j != nil {
			j.leaseUntil = now.Add(d.cfg.LeaseTTL)
		}
	}
	var out []api.ClusterLeasedJob
	for len(out) < req.Max && len(w.queue) > 0 {
		j := w.queue[0]
		w.queue = w.queue[1:]
		out = append(out, s.leaseJobLocked(j, w, false, now))
	}
	stolen := 0
	for len(out) < req.Max {
		v := s.stealVictimLocked(w.id)
		if v == nil {
			break
		}
		j := v.queue[len(v.queue)-1]
		v.queue = v.queue[:len(v.queue)-1]
		v.stolen++
		stolen++
		if s.log != nil {
			s.log.LogAttrs(j.ctx, slog.LevelInfo, "job stolen",
				slog.String("from", v.id), slog.String("by", w.id))
		}
		out = append(out, s.leaseJobLocked(j, w, true, now))
	}
	s.mu.Unlock()
	// Outside s.mu: a first-seen label value registers a series, which
	// takes the registry lock that scrapes hold while reading s.mu.
	if stolen > 0 {
		d.met.stolen.With(req.WorkerID).Add(int64(stolen))
	}
	return api.ClusterLeaseResponse{Jobs: out}
}

func (s *Server) leaseJobLocked(j *job, w *workerState, stolen bool, now time.Time) api.ClusterLeasedJob {
	j.worker = w.id
	j.leaseUntil = now.Add(s.disp.cfg.LeaseTTL)
	w.leased[j.id] = j
	s.startLocked(j)
	return api.ClusterLeasedJob{ID: j.id, Key: j.ckey, Req: j.req, Stolen: stolen}
}

// stealVictimLocked picks the most backlogged other worker worth
// robbing: it must have queued work it is in no position to start soon
// (all slots busy, or a queue of 2+).  An idle worker with one queued
// job keeps it — it will lease it on its next poll, and moving it would
// only cost cache locality.
func (s *Server) stealVictimLocked(thief string) *workerState {
	var best *workerState
	for _, id := range s.workerIDsLocked() {
		v := s.disp.workers[id]
		if id == thief || len(v.queue) == 0 {
			continue
		}
		if len(v.leased) < v.slots && len(v.queue) < 2 {
			continue
		}
		if best == nil || len(v.queue) > len(best.queue) {
			best = v
		}
	}
	return best
}

func (s *Server) workerIDsLocked() []string {
	ids := make([]string, 0, len(s.disp.workers))
	for id := range s.disp.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ensureWorkerLocked registers a worker on first contact (join or lease
// — after a coordinator restart the workers' polls re-register them)
// and re-places every queued job so placement stays the pure ring
// function of (members, key).
func (s *Server) ensureWorkerLocked(id string, slots int, now time.Time) *workerState {
	d := s.disp
	if w, ok := d.workers[id]; ok {
		return w
	}
	w := &workerState{id: id, slots: max(slots, 1), lastSeen: now, leased: make(map[string]*job)}
	d.workers[id] = w
	d.ring.Add(id)
	s.bus.Publish(api.Event{Type: "workerJoined", Worker: id})
	if s.log != nil {
		s.log.LogAttrs(s.baseCtx, slog.LevelInfo, "worker joined",
			slog.String("worker", id), slog.Int("slots", w.slots))
	}
	// Anything parked on a successor (or unassigned) moves home if the
	// new worker owns it.  Running jobs stay put: their lease, not the
	// ring, owns them now.
	var queued []*job
	for _, x := range d.workers {
		queued = append(queued, x.queue...)
		x.queue = x.queue[:0]
	}
	queued = append(queued, d.unassigned...)
	d.unassigned = nil
	sort.Slice(queued, func(i, k int) bool { return jobSeq(queued[i].id) < jobSeq(queued[k].id) })
	for _, j := range queued {
		s.placeLocked(j, true)
	}
	return w
}

// loseWorkerLocked removes a dead worker and re-dispatches everything
// it held.  A re-dispatched job lands on the dead worker's ring
// successor, and if the job actually completed before the death was
// detected, the duplicate completion is discarded idempotently — the
// rows are byte-identical by simulator determinism anyway.
func (s *Server) loseWorkerLocked(w *workerState) {
	d := s.disp
	delete(d.workers, w.id)
	d.ring.Remove(w.id)
	s.bus.Publish(api.Event{Type: "workerLost", Worker: w.id})
	if s.log != nil {
		s.log.LogAttrs(s.baseCtx, slog.LevelWarn, "worker lost",
			slog.String("worker", w.id),
			slog.Int("queued", len(w.queue)), slog.Int("leased", len(w.leased)))
	}
	for _, j := range w.queue {
		s.placeLocked(j, true)
	}
	for _, j := range w.leased {
		s.redispatchLocked(j, "worker "+w.id+" lost")
	}
}

// redispatchLocked returns a running job to the queued state and places
// it again.
func (s *Server) redispatchLocked(j *job, reason string) {
	s.dequeueLocked(j)
	s.setStateLocked(j, api.StateQueued)
	j.leaseUntil = time.Time{}
	j.redispatches++
	s.disp.met.redispatches.Inc()
	if s.log != nil {
		s.log.LogAttrs(j.ctx, slog.LevelWarn, "job re-dispatched", slog.String("reason", reason))
	}
	s.placeLocked(j, true)
	s.bus.Publish(api.Event{Type: "jobQueued", Job: statusLocked(j)})
}

// complete lands one worker-reported result.  A completion must name
// the job by ID and key — a restarted coordinator reuses IDs, so an ID
// alone may name another spec's job.  Idempotent: a job already
// terminal acknowledges as a duplicate and changes nothing.
func (s *Server) complete(req api.ClusterCompleteRequest) (api.ClusterCompleteResponse, error) {
	d := s.disp
	s.mu.Lock()
	j := s.jobs[req.JobID]
	if j == nil || j.ckey != req.Key {
		s.mu.Unlock()
		return api.ClusterCompleteResponse{}, errUnknownJob
	}
	w := d.workers[req.WorkerID]
	if w != nil {
		w.lastSeen = time.Now()
	}
	if j.terminal() {
		s.mu.Unlock()
		d.met.duplicates.Inc()
		return api.ClusterCompleteResponse{Duplicate: true}, nil
	}
	s.dequeueLocked(j)
	if w != nil {
		w.done++
	}
	if req.Cached {
		d.met.workerHits.Inc()
	}
	j.worker = req.WorkerID
	if !j.started.IsZero() {
		j.wall = time.Since(j.started)
	}
	var err error
	if req.Error != "" {
		err = errors.New(req.Error)
	}
	s.observeWallLocked(j)
	s.finishLocked(j, req.Row, req.Cached, err)
	s.mu.Unlock()
	d.met.workerDone.With(req.WorkerID).Inc()
	s.observeTerminal(j)
	// Write-back outside the lock, under the coalescing key so a speedup
	// row never answers a plain request; store damage must not fail the
	// ack.
	if err == nil && req.Row != nil && req.Row.Spec == j.req.Spec && s.st != nil {
		if payload, err := json.Marshal(req.Row); err == nil {
			_ = s.st.Put(j.ckey, payload)
		}
	}
	return api.ClusterCompleteResponse{}, nil
}

// janitor is the failure detector: it declares workers lost after
// heartbeat silence, re-dispatches expired leases, and drains the
// unassigned backlog when capacity appears.  It exits when Drain ends
// the server, cancelling whatever the workers left unreported.
func (s *Server) janitor() {
	defer s.wg.Done()
	cfg := s.disp.cfg
	t := time.NewTicker(max(min(cfg.HeartbeatTTL, cfg.LeaseTTL)/4, 5*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			s.mu.Lock()
			for _, j := range s.inflight {
				s.cancelLocked(j)
			}
			s.mu.Unlock()
			return
		case <-t.C:
			s.janitorOnce()
		}
	}
}

func (s *Server) janitorOnce() {
	now := time.Now()
	d := s.disp
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.workerIDsLocked() {
		if w := d.workers[id]; now.Sub(w.lastSeen) > d.cfg.HeartbeatTTL {
			s.loseWorkerLocked(w)
		}
	}
	for _, w := range d.workers {
		for _, j := range w.leased {
			if now.After(j.leaseUntil) {
				s.redispatchLocked(j, "lease expired")
			}
		}
	}
	if len(d.workers) == 0 {
		return
	}
	pending := d.unassigned
	d.unassigned = nil
	for _, j := range pending {
		if s.placeLocked(j, false) != nil {
			d.unassigned = append(d.unassigned, j)
		}
	}
}

// ClusterStatus snapshots a coordinator's membership and scheduling
// state (the GET /cluster/status body).
func (s *Server) ClusterStatus() api.ClusterStatus {
	d := s.disp
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := make([]api.ClusterWorker, 0, len(d.workers))
	for _, id := range s.workerIDsLocked() {
		w := d.workers[id]
		ws = append(ws, api.ClusterWorker{
			ID: w.id, Slots: w.slots,
			Queued: len(w.queue), Leased: len(w.leased),
			Done: w.done, Stolen: w.stolen,
			LastSeen: w.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	return api.ClusterStatus{
		Workers: ws, Unassigned: len(d.unassigned),
		Redispatches: d.met.redispatches.Value(),
		CacheHits:    d.met.coordHits.Value(),
		Duplicates:   d.met.duplicates.Value(),
	}
}

// sampleWorkerGauges refreshes the per-worker gauges for a scrape,
// zeroing the series of workers that have left.  The values are read
// under s.mu and set after it is released (see lease).
func (s *Server) sampleWorkerGauges() {
	type sample struct {
		id             string
		queued, leased int
	}
	d := s.disp
	s.mu.Lock()
	var out []sample
	for id := range d.gauged {
		if d.workers[id] == nil {
			out = append(out, sample{id: id})
			delete(d.gauged, id)
		}
	}
	for id, w := range d.workers {
		d.gauged[id] = true
		out = append(out, sample{id, len(w.queue), len(w.leased)})
	}
	s.mu.Unlock()
	for _, x := range out {
		d.met.queueDepth.With(x.id).Set(float64(x.queued))
		d.met.leased.With(x.id).Set(float64(x.leased))
	}
}

// jobSeq extracts the numeric part of a "j<n>" job ID.
func jobSeq(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
	return n
}

// handleJoin registers a worker (POST /cluster/join).
func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterJoinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		httpError(w, http.StatusBadRequest, "bad join body")
		return
	}
	s.mu.Lock()
	s.ensureWorkerLocked(req.WorkerID, req.Slots, time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct{}{})
}

// handleLease serves POST /cluster/lease: heartbeat, lease renewal and
// job handout in one call.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterLeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.WorkerID == "" {
		httpError(w, http.StatusBadRequest, "bad lease body")
		return
	}
	writeJSON(w, http.StatusOK, s.lease(req))
}

// handleComplete serves POST /cluster/complete.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req api.ClusterCompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.JobID == "" {
		httpError(w, http.StatusBadRequest, "bad complete body")
		return
	}
	resp, err := s.complete(req)
	if err != nil {
		httpError(w, http.StatusNotFound, "no job %q with key %q", req.JobID, req.Key)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ClusterStatus())
}
