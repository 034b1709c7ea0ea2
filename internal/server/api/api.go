// Package api defines the wire types of the svmd experiment service —
// the JSON bodies exchanged over /runs, /sweeps, /explore, /events and
// /metrics.  It is shared by the server and the thin client so both
// CLIs, the daemon and the CI smoke tests speak one format, and it
// builds on the harness's own types: requests carry RunSpec verbatim,
// responses carry harness.RunRow (the same shape svmsim -json prints
// and the persistent store holds).
package api

import (
	"swsm/internal/apps"
	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/harness/runner"
	"swsm/internal/obs"
	"swsm/internal/store"
)

// Job states, in lifecycle order.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// RunRequest submits one simulation.  The spec is the harness's own
// RunSpec; unset fields keep their zero values, so a minimal request is
// `{"spec":{"App":"fft","Protocol":"hlrc","Procs":16,...}}` — clients
// typically start from harness.DefaultSpec.  Traced specs are rejected:
// trace capture is an in-process artifact the service cannot return.
type RunRequest struct {
	Spec harness.RunSpec `json:"spec"`
	// Speedup additionally resolves the app's canonical sequential
	// baseline (cached like any other spec) and annotates the result row
	// with SeqCycles and Speedup.
	Speedup bool `json:"speedup,omitempty"`
}

// RunStatus describes a submitted job.
type RunStatus struct {
	// ID is the job handle for GET/DELETE /runs/{id}.  Identical
	// concurrent requests coalesce onto one job and share an ID.
	ID string `json:"id"`
	// Key is the spec's stable content key (the persistent-store address).
	Key   string `json:"key"`
	State string `json:"state"`
	// Cached reports that the result was served from the persistent
	// store without simulating.
	Cached bool `json:"cached,omitempty"`
	// Row is the result, present once State is "done".
	Row *harness.RunRow `json:"row,omitempty"`
	// Error is the failure message, present once State is "failed".
	Error string `json:"error,omitempty"`
	// WallMS is the job's wall-clock execution time in milliseconds
	// (queue wait excluded), present once the job left the queue.
	WallMS int64 `json:"wallMs,omitempty"`
	// Worker names the cluster worker the job is dispatched to or was
	// executed by; absent on plain (non-coordinator) daemons.
	Worker string `json:"worker,omitempty"`
}

// SweepRequest submits a batch of points that execute as one tracked
// unit over the daemon's scheduler.  Points deduplicate against
// everything else in flight exactly like individual runs.
type SweepRequest struct {
	Points []RunRequest `json:"points"`
}

// SweepStatus describes a sweep and its per-point jobs, in submission
// order.
type SweepStatus struct {
	ID     string      `json:"id"`
	Total  int         `json:"total"`
	Done   int         `json:"done"`
	Failed int         `json:"failed"`
	Points []RunStatus `json:"points"`
}

// Event is one frame of the /events SSE stream: every job lifecycle
// transition, with the completed row (stats-layer breakdown included)
// on "jobDone" frames, plus sweep progress ticks.
type Event struct {
	// Seq is a monotonically increasing frame number (per daemon).
	Seq int64 `json:"seq"`
	// Type is one of jobQueued, jobStarted, jobDone, jobFailed,
	// jobCanceled, sweepProgress, drain, a coordinator's workerJoined
	// and workerLost — plus the auto-tuner's
	// exploreStarted, exploreProgress, exploreFrontier, exploreDone,
	// exploreFailed and exploreCanceled.
	Type string `json:"type"`
	// Job carries the job's status for job* events.
	Job *RunStatus `json:"job,omitempty"`
	// Sweep carries progress for sweepProgress events.
	Sweep *SweepStatus `json:"sweep,omitempty"`
	// Explore carries the exploration's status snapshot for explore*
	// events (per-batch progress scalars; frontier-update frames list
	// the newly discovered Pareto points under progress.newPoints).
	Explore *ExploreStatus `json:"explore,omitempty"`
	// Worker names the subject of a coordinator's workerJoined and
	// workerLost frames (job* frames carry it in Job.Worker).
	Worker string `json:"worker,omitempty"`
}

// ExploreStatus describes an exploration (POST /explore, GET
// /explore/{id}).  Explorations are born running — the search driver
// starts at admission — and end done, failed or canceled.
type ExploreStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// App, Scale, Seed and Budget echo the defaulted request.
	App    string     `json:"app"`
	Scale  apps.Scale `json:"scale"`
	Seed   uint64     `json:"seed"`
	Budget int64      `json:"budget"`
	// Error is set for failed and canceled explorations.
	Error string `json:"error,omitempty"`
	// Stopped is the finished search's stop reason (see
	// explore.Report.Stopped).
	Stopped string `json:"stopped,omitempty"`
	// WallMS is the exploration's wall-clock duration, set once it is
	// terminal.
	WallMS int64 `json:"wallMs,omitempty"`
	// Progress is the latest per-batch snapshot.  On exploreFrontier
	// events its NewPoints field carries the points just added;
	// elsewhere NewPoints is empty and Frontier holds the whole curve.
	Progress explore.Progress `json:"progress"`
	// Frontier is the Pareto frontier discovered so far (complete on
	// terminal statuses).
	Frontier []explore.Point `json:"frontier,omitempty"`
}

// Exploration event types, carried on /events with the status under
// the "explore" field.
const (
	EventExploreStarted  = "exploreStarted"
	EventExploreProgress = "exploreProgress"
	EventExploreFrontier = "exploreFrontier"
	EventExploreDone     = "exploreDone"
	EventExploreFailed   = "exploreFailed"
	EventExploreCanceled = "exploreCanceled"
)

// Metrics is the GET /metrics body.
type Metrics struct {
	UptimeSec float64 `json:"uptimeSec"`
	Draining  bool    `json:"draining"`
	// QueueDepth/QueueCap describe the admission queue; InFlight counts
	// jobs currently executing on workers.
	QueueDepth int `json:"queueDepth"`
	QueueCap   int `json:"queueCap"`
	InFlight   int `json:"inFlight"`
	Workers    int `json:"workers"`
	// Jobs counts jobs by state over the daemon's lifetime.
	Jobs map[string]int `json:"jobs"`
	// Store reports the persistent result store's traffic and residency;
	// StoreHitRatio is Hits/(Hits+Misses).
	Store         store.Stats `json:"store"`
	StoreHitRatio float64     `json:"storeHitRatio"`
	// Runner reports the in-process memoization pool underneath the
	// scheduler (simulations actually executed, memo hits, coalesced
	// waits).
	Runner runner.Stats `json:"runner"`
	// Process reports Go process health: uptime, goroutine count, heap
	// residency and GC totals.  Added with the observability plane;
	// older clients that don't know the field simply ignore it.
	Process obs.ProcessStats `json:"process"`
}

// Health is the GET /healthz body.
type Health struct {
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining"`
	Version  string `json:"version"`
	// KeyVersion is the RunSpec content-key version the daemon computes;
	// clients comparing stored keys across daemons should check it.
	KeyVersion int `json:"keyVersion"`
	// Workers counts live joined workers (coordinators only).
	Workers int `json:"workers,omitempty"`
}

// ---------------------------------------------------------------------------
// Cluster protocol: the wire types of the coordinator <-> worker lease
// protocol.  Workers pull: a join registers the node, a lease request
// doubles as the heartbeat and hands out queued jobs (its own ring
// share first, then stolen stragglers), and a complete reports the
// terminal row.

// ClusterJoinRequest registers a worker with the coordinator.
type ClusterJoinRequest struct {
	// WorkerID is the worker's stable identity (ring placement hashes
	// it, so it must survive worker restarts for cache locality to).
	WorkerID string `json:"workerId"`
	// Slots is the worker's concurrent-simulation bound, reported for
	// observability and steal heuristics.
	Slots int `json:"slots"`
}

// ClusterLeaseRequest asks for up to Max jobs and renews the leases of
// the jobs the worker still holds.  A request with Max 0 is a pure
// heartbeat.
type ClusterLeaseRequest struct {
	WorkerID string `json:"workerId"`
	Slots    int    `json:"slots"`
	Max      int    `json:"max"`
	// Held renews the lease on jobs the worker is still executing, so a
	// slow simulation is a straggler (stealable queue, extended lease),
	// not a death (re-dispatch).
	Held []string `json:"held,omitempty"`
}

// ClusterLeasedJob is one job handed to a worker.
type ClusterLeasedJob struct {
	ID string `json:"id"`
	// Key is the job's store key — the spec's content key, plus
	// "+speedup" for speedup requests.  The worker echoes it on
	// completion, so a result can only land on the job it was computed
	// for.
	Key string     `json:"key"`
	Req RunRequest `json:"req"`
	// Stolen marks a job taken from another worker's dispatch queue
	// (the thief was idle; the ring home was a straggler).
	Stolen bool `json:"stolen,omitempty"`
}

// ClusterLeaseResponse carries the leased jobs.
type ClusterLeaseResponse struct {
	Jobs []ClusterLeasedJob `json:"jobs,omitempty"`
}

// ClusterCompleteRequest reports one leased job's terminal result.
// The coordinator answers 404 when it has no job with this ID and Key
// (a restarted coordinator reuses IDs).  Completion is idempotent: a
// job already terminal (completed by a steal race or an earlier
// attempt) is acknowledged as a duplicate and its result discarded —
// results are content-addressed and deterministic, so the first row is
// the row.
type ClusterCompleteRequest struct {
	WorkerID string `json:"workerId"`
	JobID    string `json:"jobId"`
	// Key echoes ClusterLeasedJob.Key.
	Key string `json:"key"`
	// Row is the result on success (nil when Error is set).
	Row *harness.RunRow `json:"row,omitempty"`
	// Cached reports the worker answered from its own cache tier
	// (persistent store or memo) without simulating.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ClusterCompleteResponse acknowledges a completion.
type ClusterCompleteResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// ClusterWorker snapshots one joined worker for /cluster/status.
type ClusterWorker struct {
	ID       string `json:"id"`
	Slots    int    `json:"slots"`
	Queued   int    `json:"queued"`
	Leased   int    `json:"leased"`
	Done     int64  `json:"done"`
	Stolen   int64  `json:"stolen"`
	LastSeen string `json:"lastSeen"`
}

// ClusterStatus is the GET /cluster/status body — the coordinator's
// membership and scheduling state for dashboards and smoke tests.
type ClusterStatus struct {
	Workers []ClusterWorker `json:"workers"`
	// Unassigned counts jobs waiting for any worker to join.
	Unassigned   int   `json:"unassigned"`
	Redispatches int64 `json:"redispatches"`
	// CacheHits counts jobs answered from the coordinator's own store
	// without dispatching.
	CacheHits int64 `json:"cacheHits"`
	// Duplicates counts idempotently discarded duplicate completions.
	Duplicates int64 `json:"duplicates"`
}
