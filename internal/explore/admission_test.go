package explore_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"swsm/internal/explore"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// Explorations are admitted by the daemon: a draining daemon refuses
// them and a bounded number run at once.  These tests pin that
// admission contract as a search client sees it, over HTTP.

// gatedReq is an 8-point search of the fft kernel.
func gatedReq() explore.Request {
	return explore.Request{
		App:        "fft",
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

// gatedDaemon serves a daemon whose simulations block until release is
// closed, so explorations stay running for as long as a test needs.
// The returned client never retries a 429.
func gatedDaemon(t *testing.T) (*server.Server, *httptest.Server, *client.Client, chan struct{}) {
	t.Helper()
	s, err := server.New(server.Config{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	ses := harness.NewSession(2)
	s.SetRunFunc(func(ctx context.Context, spec harness.RunSpec) (*harness.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return ses.RunCtx(ctx, spec)
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	c := client.New(ts.URL)
	c.Retries = -1
	return s, ts, c, release
}

// fillExplorations submits gated explorations until the daemon refuses
// one, returning how many it admitted and the refusal.
func fillExplorations(t *testing.T, c *client.Client) (int, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for n := 0; n < 64; n++ {
		if _, err := c.SubmitExplore(ctx, gatedReq()); err != nil {
			return n, err
		}
	}
	t.Fatal("64 gated explorations admitted: no concurrency limit")
	return 0, nil
}

// At the limit a submission is refused with 429, a Retry-After in whole
// seconds and a JSON error naming the limit, and leaves no record.
func TestHandlerLimitMapsTo429(t *testing.T) {
	_, ts, c, _ := gatedDaemon(t)
	n, err := fillExplorations(t, c)
	if n == 0 || client.StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("refused after %d admissions with %v, want 429 after at least one", n, err)
	}

	body, err := json.Marshal(gatedReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/explore", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit status %d, want 429", resp.StatusCode)
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || sec <= 0 {
		t.Errorf("Retry-After = %q, want a positive number of seconds", resp.Header.Get("Retry-After"))
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "explorations") {
		t.Errorf("429 body error = %q (%v), want it to name the exploration limit", e.Error, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	next := "e" + strconv.Itoa(n+1)
	if _, err := c.GetExplore(ctx, next, false); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("GET %s after refusals = %v, want 404", next, err)
	}
}

// A slot frees as soon as an exploration ends, whether it is canceled
// or runs to completion, and the next submission is admitted.
func TestManagerLimitAndSlotRelease(t *testing.T) {
	_, _, c, release := gatedDaemon(t)
	n, err := fillExplorations(t, c)
	if n == 0 || client.StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("refused after %d admissions with %v, want 429 after at least one", n, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Cancel e1: its slot is free once it reports canceled.
	if _, err := c.CancelExplore(ctx, "e1"); err != nil {
		t.Fatal(err)
	}
	if st, err := c.GetExplore(ctx, "e1", true); err != nil || st.State != api.StateCanceled {
		t.Fatalf("e1 after cancel = %+v, %v", st, err)
	}
	st, err := c.SubmitExplore(ctx, gatedReq())
	if err != nil {
		t.Fatalf("submit after a cancel freed a slot = %v", err)
	}
	if _, err := c.SubmitExplore(ctx, gatedReq()); client.StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("submit with the freed slot retaken = %v, want 429", err)
	}

	// Let every search finish: all slots free, and a new one runs to done.
	close(release)
	if fin, err := c.GetExplore(ctx, st.ID, true); err != nil || fin.State != api.StateDone {
		t.Fatalf("%s after release = %+v, %v", st.ID, fin, err)
	}
	for i := 2; i <= n; i++ {
		id := "e" + strconv.Itoa(i)
		if fin, err := c.GetExplore(ctx, id, true); err != nil || fin.State != api.StateDone {
			t.Fatalf("%s after release = %+v, %v", id, fin, err)
		}
	}
	last, err := c.Explore(ctx, gatedReq())
	if err != nil || last.State != api.StateDone {
		t.Fatalf("explore after completions = %+v, %v", last, err)
	}
}

// A draining daemon refuses an exploration with 503 naming the reason,
// and records nothing for it.
func TestManagerAdmitGate(t *testing.T) {
	s, _, c, _ := gatedDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, err := c.SubmitExplore(ctx, gatedReq())
	if client.StatusCode(err) != http.StatusServiceUnavailable || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit on a draining daemon = %v, want 503 naming the drain", err)
	}
	if _, err := c.GetExplore(ctx, "e1", false); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("GET e1 after the refusal = %v, want 404", err)
	}
}
