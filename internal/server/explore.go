package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
)

// maxExplorations bounds concurrently running explorations.  Each one's
// point simulations still queue through the ordinary job scheduler;
// the limit only caps how many search drivers compete for it.
const maxExplorations = 2

// errTooManyExplorations refuses an exploration while maxExplorations
// are running (429 + Retry-After).
var errTooManyExplorations = errors.New("too many active explorations")

// exploration is one /explore search.  st is guarded by Server.mu;
// done is closed once st.State is terminal.
type exploration struct {
	req    explore.Request // defaulted and validated
	cancel context.CancelFunc
	done   chan struct{}
	start  time.Time
	st     api.ExploreStatus
}

// snapshotLocked copies x's status; newPts, if any, rides as
// Progress.NewPoints (frontier-update events).  Caller holds s.mu.
func (x *exploration) snapshotLocked(newPts []explore.Point) *api.ExploreStatus {
	st := x.st
	st.Frontier = append([]explore.Point{}, x.st.Frontier...)
	st.Progress.NewPoints = newPts
	return &st
}

// submitExplore admits an exploration and starts its search driver,
// returning the initial (running) status.  Like submit it refuses with
// ErrDraining while the daemon drains; at the concurrency limit it
// refuses with errTooManyExplorations.
func (s *Server) submitExplore(req explore.Request) (*exploration, *api.ExploreStatus, error) {
	req, err := req.WithDefaults()
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, ErrDraining
	}
	if s.exploring >= maxExplorations {
		return nil, nil, errTooManyExplorations
	}
	s.exploring++
	s.nextExplore++
	ctx, cancel := context.WithCancel(s.baseCtx)
	x := &exploration{
		req: req, cancel: cancel, done: make(chan struct{}), start: time.Now(),
		st: api.ExploreStatus{
			ID: fmt.Sprintf("e%d", s.nextExplore), State: api.StateRunning,
			App: req.App, Scale: req.Scale, Seed: req.Seed, Budget: req.Budget,
			Progress: explore.Progress{Budget: req.Budget},
		},
	}
	s.explores[x.st.ID] = x
	s.live.Add(1)
	if s.log != nil {
		s.log.Info("explore started", "explore", x.st.ID, "app", req.App,
			"scale", int(req.Scale), "seed", req.Seed, "budget", req.Budget)
	}
	s.flight.Record(x.st.ID, api.StateRunning, "explore "+req.App)
	st := x.snapshotLocked(nil)
	s.bus.Publish(api.Event{Type: api.EventExploreStarted, Explore: st})
	go s.drive(ctx, x)
	return x, st, nil
}

// drive runs one exploration to its terminal state.
func (s *Server) drive(ctx context.Context, x *exploration) {
	defer s.live.Done()
	rep, err := explore.Run(ctx, x.req, serverEvaluator{s}, func(p explore.Progress) { s.exploreProgress(x, p) })

	s.mu.Lock()
	defer s.mu.Unlock()
	x.st.WallMS = time.Since(x.start).Milliseconds()
	// A canceled context outranks the error: a drained or deleted
	// exploration whose evaluator then met a draining scheduler was
	// canceled, not failed.
	switch {
	case err == nil:
		// The last batch's progress already holds the report's totals
		// and x.st.Frontier its frontier; a finished search has no phase.
		x.st.State, x.st.Stopped, x.st.Progress.Phase = api.StateDone, rep.Stopped, ""
	case ctx.Err() != nil:
		x.st.State, x.st.Error = api.StateCanceled, ctx.Err().Error()
	default:
		x.st.State, x.st.Error = api.StateFailed, err.Error()
	}
	s.exploring--
	x.cancel()
	close(x.done)
	s.met.exploreTotal[x.st.State].Inc()
	s.flight.Record(x.st.ID, x.st.State, x.st.Error)
	if s.log != nil {
		lvl := slog.LevelInfo
		if x.st.State == api.StateFailed {
			lvl = slog.LevelWarn
		}
		s.log.Log(ctx, lvl, "explore "+x.st.State, "explore", x.st.ID, "error", x.st.Error,
			"stopped", x.st.Stopped, "frontier", len(x.st.Frontier),
			"evaluated", x.st.Progress.Evaluated, "sims", x.st.Progress.SimsRun,
			"spentCycles", x.st.Progress.SpentCycles, "wallMs", x.st.WallMS)
	}
	typ := map[string]string{
		api.StateDone:     api.EventExploreDone,
		api.StateFailed:   api.EventExploreFailed,
		api.StateCanceled: api.EventExploreCanceled,
	}[x.st.State]
	s.bus.Publish(api.Event{Type: typ, Explore: x.snapshotLocked(nil)})
}

// exploreProgress folds a per-batch snapshot into the exploration and
// publishes the progress (and, when the frontier advanced,
// frontier-update) events.
func (s *Server) exploreProgress(x *exploration, p explore.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met.exploreBatches.Add(int64(p.Batches - x.st.Progress.Batches))
	s.met.exploreSims.Add(int64(p.SimsRun - x.st.Progress.SimsRun))
	s.met.exploreCached.Add(int64(p.CachedHits - x.st.Progress.CachedHits))
	s.met.exploreFrontier.Add(int64(len(p.NewPoints)))
	newPts := p.NewPoints
	p.NewPoints = nil
	x.st.Progress = p
	x.st.Frontier = append(x.st.Frontier, newPts...)
	s.bus.Publish(api.Event{Type: api.EventExploreProgress, Explore: x.snapshotLocked(nil)})
	if len(newPts) > 0 {
		s.bus.Publish(api.Event{Type: api.EventExploreFrontier, Explore: x.snapshotLocked(newPts)})
	}
}

// exploreStatus snapshots x — with wait set, once x is terminal or ctx
// ends.
func (s *Server) exploreStatus(ctx context.Context, x *exploration, wait bool) *api.ExploreStatus {
	if wait {
		select {
		case <-x.done:
		case <-ctx.Done():
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return x.snapshotLocked(nil)
}

// serverEvaluator executes exploration candidates through the daemon's
// own job scheduler, so auto-tuning traffic is ordinary traffic: each
// point is a detached job that coalesces with identical in-flight
// requests, competes for queue slots under the same backpressure, and
// resolves store-first exactly like a POST /runs.  A full queue parks
// the batch (bounded retry with the daemon's own Retry-After cadence)
// instead of overflowing it — the optimizer is the one client that must
// never amplify pressure on a busy daemon.
type serverEvaluator struct{ s *Server }

// submitRetryDelay paces re-submission attempts against a full queue.
const submitRetryDelay = 10 * time.Millisecond

func (e serverEvaluator) Evaluate(ctx context.Context, specs []harness.RunSpec) ([]explore.Evaluation, error) {
	out := make([]explore.Evaluation, len(specs))
	jobs := make([]*job, len(specs))
	for i, spec := range specs {
		out[i].Spec = spec
		// Probe caches before execution: the budget ledger charges only
		// evaluations that were warm nowhere.
		if e.s.ses.Cached(spec) || (e.s.st != nil && e.s.st.Has(spec.Key())) {
			out[i].Cached = true
		}
		for {
			j, _, err := e.s.submit(api.RunRequest{Spec: spec}, true)
			if err == nil {
				jobs[i] = j
				break
			}
			if !errors.Is(err, ErrQueueFull) {
				return nil, err // draining or invalid — abort the search
			}
			select {
			case <-time.After(submitRetryDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	for i, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		e.s.mu.Lock()
		switch {
		case j.state == api.StateDone:
			out[i].Row = j.row
			if j.cached {
				out[i].Cached = true
			}
		case j.err != nil:
			out[i].Err = j.err.Error()
		default:
			out[i].Err = "job " + j.id + " ended in state " + j.state
		}
		e.s.mu.Unlock()
	}
	return out, nil
}

// The /explore handlers.  Status codes follow the run API: 202 on an
// asynchronous submit, 200 once terminal, 404 for an unknown ID, 429 +
// Retry-After at the concurrency limit, 503 while draining, 400 for a
// bad request.

// handleSubmitExplore serves POST /explore.  ?wait=1 blocks until the
// exploration finishes (or the request ends) and answers 200; otherwise
// the initial running status answers 202.
func (s *Server) handleSubmitExplore(w http.ResponseWriter, r *http.Request) {
	var req explore.Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	x, st, err := s.submitExplore(req)
	if err != nil {
		submitError(w, err)
		return
	}
	if wantWait(r) {
		st = s.exploreStatus(r.Context(), x, true)
	}
	code := http.StatusOK
	if st.State == api.StateRunning {
		code = http.StatusAccepted
	}
	writeJSON(w, code, st)
}

func (s *Server) handleListExplore(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]*api.ExploreStatus, 0, len(s.explores))
	for i := int64(1); i <= s.nextExplore; i++ {
		out = append(out, s.explores[fmt.Sprintf("e%d", i)].snapshotLocked(nil))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// exploreByID looks up the {id} exploration, answering 404 if there
// is none.
func (s *Server) exploreByID(w http.ResponseWriter, r *http.Request) *exploration {
	s.mu.Lock()
	x := s.explores[r.PathValue("id")]
	s.mu.Unlock()
	if x == nil {
		httpError(w, http.StatusNotFound, "no exploration %q", r.PathValue("id"))
	}
	return x
}

// handleGetExplore serves GET /explore/{id} (?wait=1 blocks until
// terminal).
func (s *Server) handleGetExplore(w http.ResponseWriter, r *http.Request) {
	if x := s.exploreByID(w, r); x != nil {
		writeJSON(w, http.StatusOK, s.exploreStatus(r.Context(), x, wantWait(r)))
	}
}

// handleCancelExplore serves DELETE /explore/{id}.  The driver observes
// the cancellation at its next batch boundary; in-flight point jobs
// complete and stay cached.
func (s *Server) handleCancelExplore(w http.ResponseWriter, r *http.Request) {
	if x := s.exploreByID(w, r); x != nil {
		x.cancel()
		writeJSON(w, http.StatusOK, s.exploreStatus(r.Context(), x, false))
	}
}

// handleExploreFrontier serves GET /explore/{id}/frontier — the current
// Pareto frontier in the CSV shape svmbench -explore -csv writes.
func (s *Server) handleExploreFrontier(w http.ResponseWriter, r *http.Request) {
	if x := s.exploreByID(w, r); x != nil {
		w.Header().Set("Content-Type", "text/csv")
		explore.WriteFrontierCSV(w, s.exploreStatus(r.Context(), x, false).Frontier)
	}
}
