package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// exploreReq is the compact 8-point search space every daemon-side
// explore test uses.
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

// The /explore endpoint runs a search through the daemon's own job
// pipeline: a cold run simulates, a restarted daemon over the same
// store replays the identical frontier with zero fresh simulations.
func TestExploreEndToEndAndWarmRestart(t *testing.T) {
	s1, _, c1, dir := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	cold, err := c1.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if cold.State != api.StateDone || cold.Stopped != "converged" {
		t.Fatalf("cold explore = %s/%s (%s)", cold.State, cold.Stopped, cold.Error)
	}
	if len(cold.Frontier) == 0 {
		t.Fatal("cold explore found nothing")
	}
	if cold.Progress.SimsRun == 0 {
		t.Fatal("cold explore simulated nothing")
	}
	for i := 1; i < len(cold.Frontier); i++ {
		if cold.Frontier[i].CostCycles <= cold.Frontier[i-1].CostCycles ||
			cold.Frontier[i].Speedup <= cold.Frontier[i-1].Speedup {
			t.Fatalf("frontier not strictly monotone at %d: %+v", i, cold.Frontier)
		}
	}
	// Every frontier row is individually resolvable through the run API
	// by content key (the daemon computed and stored it).
	for _, p := range cold.Frontier {
		if p.Key == "" {
			t.Fatalf("frontier point %s has no key", p.Label)
		}
	}
	drainCtx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	s1.Drain(drainCtx)

	// Restart over the same store: same request, zero new simulations,
	// byte-identical frontier.
	_, _, c2 := newTestServer(t, Config{Parallel: 2, StoreDir: dir})
	warm, err := c2.Explore(ctx, exploreReq())
	if err != nil {
		t.Fatalf("warm explore: %v", err)
	}
	if warm.Progress.SimsRun != 0 {
		t.Errorf("warm explore ran %d fresh simulations, want 0", warm.Progress.SimsRun)
	}
	cf, _ := json.Marshal(cold.Frontier)
	wf, _ := json.Marshal(warm.Frontier)
	if string(cf) != string(wf) {
		t.Errorf("warm frontier diverged:\ncold: %s\nwarm: %s", cf, wf)
	}
}

// Explore lifecycle events ride the daemon's existing SSE channel with
// the status under the "explore" field.
func TestExploreEventsOnSSE(t *testing.T) {
	_, ts, c, _ := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	if _, err := c.Explore(ctx, exploreReq()); err != nil {
		t.Fatalf("explore: %v", err)
	}

	seen := map[string]bool{}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev struct {
			Type    string             `json:"type"`
			Explore *api.ExploreStatus `json:"explore"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		if strings.HasPrefix(ev.Type, "explore") {
			if ev.Explore == nil {
				t.Fatalf("event %s missing explore status", ev.Type)
			}
			seen[ev.Type] = true
		}
		if ev.Type == api.EventExploreDone {
			break
		}
	}
	for _, want := range []string{api.EventExploreStarted, api.EventExploreProgress, api.EventExploreFrontier, api.EventExploreDone} {
		if !seen[want] {
			t.Errorf("SSE never carried %s (saw %v)", want, seen)
		}
	}
}

// A draining daemon refuses new explorations with 503.
func TestExploreDrainingRefused(t *testing.T) {
	s, _, c, _ := newTestServerWithStore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	c.Retries = -1
	_, err := c.SubmitExplore(ctx, exploreReq())
	if err == nil || client.StatusCode(err) != http.StatusServiceUnavailable {
		t.Fatalf("submit on draining daemon = %v, want 503", err)
	}
}

// postExplore POSTs body to /explore (with an optional query) and
// decodes a 2xx status.
func postExplore(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, *api.ExploreStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/explore"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.ExploreStatus
	if resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, &st
}

func frontierBytes(t *testing.T, f []explore.Point) string {
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func exploreBody(t testing.TB) []byte {
	body, err := json.Marshal(exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// An exploration is born running as e1, publishes started, progress,
// frontier and done events in that order on the daemon's bus, and ends
// done with a converged, non-empty frontier.
func TestExploreLifecycle(t *testing.T) {
	s, _, _ := newTestServer(t, Config{Parallel: 2})
	events, unsubscribe := s.bus.Subscribe()
	defer unsubscribe()
	var seen []string
	got := make(chan struct{})
	go func() {
		defer close(got)
		for e := range events {
			if e.Explore != nil {
				seen = append(seen, e.Type)
			}
			if e.Type == api.EventExploreDone {
				return
			}
		}
	}()

	x, st, err := s.submitExplore(exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "e1" || st.State != api.StateRunning {
		t.Fatalf("initial status = %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fin := s.exploreStatus(ctx, x, true)
	if fin.State != api.StateDone || fin.Stopped != "converged" || len(fin.Frontier) == 0 {
		t.Fatalf("terminal status = %+v", fin)
	}
	// The terminal status carries the search's own report.
	rep, err := explore.Run(ctx, exploreReq(), explore.SessionEvaluator{Ses: harness.NewSession(2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := fin.Progress
	if p.Phase != "" || p.Batches != rep.Batches || p.Evaluated != rep.Evaluated || p.Errors != rep.Errors ||
		p.CostCycles != rep.CostCycles || p.FrontierSize != len(rep.Frontier) || p.BestSpeedup != rep.Best().Speedup {
		t.Errorf("terminal progress = %+v, report = %+v", p, rep)
	}
	if got, want := frontierBytes(t, fin.Frontier), frontierBytes(t, rep.Frontier); got != want {
		t.Errorf("terminal frontier %s, report %s", got, want)
	}
	<-got
	count := map[string]int{}
	for _, typ := range seen {
		count[typ]++
	}
	if seen[0] != api.EventExploreStarted || seen[len(seen)-1] != api.EventExploreDone ||
		count[api.EventExploreStarted] != 1 || count[api.EventExploreDone] != 1 ||
		count[api.EventExploreProgress] == 0 || count[api.EventExploreFrontier] == 0 {
		t.Errorf("lifecycle events = %v", seen)
	}
}

// The concurrency limit is reached by submitting gated explorations up
// to it: the next submission gets 429 with Retry-After, and a slot is
// free again as soon as one exploration finishes.
func TestExplore429AndSlotRelease(t *testing.T) {
	_, ts, c, release := blockingServer(t, Config{Parallel: 2})
	body := exploreBody(t)
	for i := 0; i < maxExplorations; i++ {
		if resp, _ := postExplore(t, ts, "", body); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d, want 202", i+1, resp.StatusCode)
		}
	}
	resp, _ := postExplore(t, ts, "", body)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("over-limit submit = %d (Retry-After %q), want 429 with Retry-After 5",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if _, samples := scrape(t, ts); sampleInt(t, samples, "svmd_explore_active") != maxExplorations {
		t.Errorf("svmd_explore_active = %s, want %d", samples["svmd_explore_active"], maxExplorations)
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := c.GetExplore(ctx, "e1", true); err != nil || st.State != api.StateDone {
		t.Fatalf("e1 after release = %+v, %v", st, err)
	}
	if resp, st := postExplore(t, ts, "", body); resp.StatusCode != http.StatusAccepted || st.ID != "e3" {
		t.Fatalf("submit after a slot freed = %d %+v, want 202 as e3", resp.StatusCode, st)
	}
}

// DELETE cancels a running exploration; it ends canceled.
func TestExploreCancel(t *testing.T) {
	_, ts, c, _ := blockingServer(t, Config{Parallel: 2})
	if resp, _ := postExplore(t, ts, "", exploreBody(t)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.CancelExplore(ctx, "e1"); err != nil {
		t.Fatal(err)
	}
	st, err := c.GetExplore(ctx, "e1", true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCanceled || st.Error == "" {
		t.Fatalf("after DELETE: %+v", st)
	}
	if _, err := c.CancelExplore(ctx, "e9"); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("DELETE unknown exploration = %v, want 404", err)
	}
}

// Drain cancels running explorations in the critical section that sets
// draining: a driver parked re-submitting against a full queue ends
// canceled, never failed, and Drain returns with nothing running.
func TestExploreDrainCancelsNotFails(t *testing.T) {
	s, ts, c, release := blockingServer(t, Config{Parallel: 1, QueueDepth: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Occupy the worker and fill the one-deep queue.
	if _, err := c.Submit(ctx, api.RunRequest{Spec: tinySpec(2)}); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, s, 1)
	if _, err := c.Submit(ctx, api.RunRequest{Spec: tinySpec(4)}); err != nil {
		t.Fatal(err)
	}
	x, _, err := s.submitExplore(exploreReq())
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * submitRetryDelay) // the baseline submit meets the full queue

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	if st := s.exploreStatus(ctx, x, true); st.State != api.StateCanceled {
		t.Fatalf("drained exploration ended %s (%s), want canceled", st.State, st.Error)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.submitExplore(exploreReq()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
	_, samples := scrape(t, ts)
	for series, want := range map[string]int64{
		`svmd_explore_total{state="canceled"}`: 1,
		`svmd_explore_total{state="failed"}`:   0,
		"svmd_explore_active":                  0,
	} {
		if got := sampleInt(t, samples, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// A finished exploration is counted in the svmd_explore_* families.
func TestExploreMetrics(t *testing.T) {
	_, ts, c := newTestServer(t, Config{Parallel: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Explore(ctx, exploreReq())
	if err != nil || st.State != api.StateDone {
		t.Fatalf("explore = %+v, %v", st, err)
	}
	_, samples := scrape(t, ts)
	for series, want := range map[string]int64{
		`svmd_explore_total{state="done"}`:                 1,
		`svmd_explore_total{state="failed"}`:               0,
		"svmd_explore_active":                              0,
		"svmd_explore_batches_total":                       int64(st.Progress.Batches),
		`svmd_explore_evaluations_total{outcome="sim"}`:    int64(st.Progress.SimsRun),
		`svmd_explore_evaluations_total{outcome="cached"}`: int64(st.Progress.CachedHits),
		"svmd_explore_frontier_points_total":               int64(len(st.Frontier)),
	} {
		if got := sampleInt(t, samples, series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

// The HTTP surface end to end: submit-and-wait, frontier CSV, list,
// unknown IDs and bad bodies.
func TestExploreHandlersEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Parallel: 2})
	resp, st := postExplore(t, ts, "?wait=1", exploreBody(t))
	if resp.StatusCode != http.StatusOK || st.State != api.StateDone || len(st.Frontier) == 0 {
		t.Fatalf("submit wait=1 = %d %+v", resp.StatusCode, st)
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	r, csv := get("/explore/" + st.ID + "/frontier")
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("frontier content type %q", ct)
	}
	if !strings.HasPrefix(string(csv), "eval,cost_cycles,speedup,cycles,label,key\n") {
		t.Errorf("frontier csv = %q", csv)
	}
	var list []api.ExploreStatus
	if _, body := get("/explore"); json.Unmarshal(body, &list) != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %s", body)
	}
	for _, path := range []string{"/explore/e404", "/explore/e404/frontier"} {
		if r, _ := get(path); r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
	for _, body := range []string{`{`, `{"app":"no-such-app"}`, `{"app":"fft","seedPoints":-1}`} {
		if resp, _ := postExplore(t, ts, "", []byte(body)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, resp.StatusCode)
		}
	}
}

// A space whose size wraps an int is refused before admission: four
// 65,536-entry lists multiply to 2^64.
func TestExploreWrappedSpaceRejected(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Parallel: 1})
	req := exploreReq()
	req.Space.Protocols = []harness.ProtocolKind{harness.LRC}
	req.Space.CommSets = make([]string, 1<<16)
	req.Space.CostSets = make([]string, 1<<16)
	req.Space.Procs = make([]int, 1<<16)
	req.Space.DropPPMs = make([]int64, 1<<16)
	for i := 0; i < 1<<16; i++ {
		req.Space.CommSets[i], req.Space.CostSets[i] = "A", "O"
		req.Space.Procs[i], req.Space.DropPPMs[i] = 2+i%2, int64(i%4)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) >= maxBodyBytes {
		t.Fatalf("body %d bytes, want under the %d bound", len(body), maxBodyBytes)
	}
	if resp, _ := postExplore(t, ts, "", body); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrapped space = %d, want 400", resp.StatusCode)
	}
	if len(s.explores) != 0 {
		t.Fatal("wrapped space admitted")
	}
}

// FuzzExploreRequest sends arbitrary bytes to POST /explore.  The
// handler must never panic, and every exploration it admits must have
// 1 <= SeedPoints <= 4096: the requested count (default 16) capped at
// the space's exact size, which therefore did not wrap.  Candidates are
// not simulated; each admitted search fails at its baseline.
func FuzzExploreRequest(f *testing.F) {
	s, err := New(Config{Parallel: 1})
	if err != nil {
		f.Fatal(err)
	}
	s.SetRunFunc(func(context.Context, harness.RunSpec) (*harness.Result, error) {
		return nil, errors.New("not simulated under fuzzing")
	})
	f.Cleanup(func() { s.Drain(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/explore", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			return
		}
		var st api.ExploreStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("202 body %q: %v", rec.Body, err)
		}
		s.mu.Lock()
		x := s.explores[st.ID]
		s.mu.Unlock()
		x.cancel()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if st := s.exploreStatus(ctx, x, true); st.State == api.StateRunning { // free the slot for the next input
			t.Fatalf("exploration still running 5s after cancel: %+v", st)
		}

		var asked explore.Request
		json.Unmarshal(body, &asked)
		want := big.NewInt(16)
		if asked.SeedPoints != 0 {
			want.SetInt64(int64(asked.SeedPoints))
		}
		if size := exactSize(x.req.Space); want.Cmp(size) > 0 {
			want = size
		}
		if n := x.req.SeedPoints; n < 1 || n > 4096 || want.Cmp(big.NewInt(int64(n))) != 0 {
			t.Fatalf("admitted seedPoints %d, want %v in [1,4096]", n, want)
		}
	})
}

// exactSize counts a defaulted space's points the way Space.size does,
// in arbitrary precision.
func exactSize(sp explore.Space) *big.Int {
	n := new(big.Int)
	for _, p := range sp.Protocols {
		lens := []int{len(sp.CommSets), len(sp.CostSets), len(sp.Procs), len(sp.DropPPMs), len(sp.Skews)}
		switch p {
		case harness.HLRC:
			lens = append(lens, len(sp.HLRCUnitShifts), len(sp.Placements))
		case harness.SC:
			lens = append(lens, len(sp.SCBlocks))
		}
		per := big.NewInt(1)
		for _, k := range lens {
			per.Mul(per, big.NewInt(int64(k)))
		}
		n.Add(n, per)
	}
	return n
}
