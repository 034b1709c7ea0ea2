// Package client is the thin HTTP client for the svmd experiment
// service: the piece both CLIs use in -server mode.  It speaks the
// api package's wire types, honors the daemon's explicit backpressure
// (429 + Retry-After triggers a bounded, context-aware retry), and
// otherwise stays deliberately dumb — spec construction, speedup math
// and formatting all live with the caller, exactly as in local mode.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"swsm/internal/explore"
	"swsm/internal/server/api"
)

// Client talks to one svmd daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:7099".
	BaseURL string
	// HTTP is the transport (http.DefaultClient if nil).
	HTTP *http.Client
	// Retries bounds re-submissions after 429 responses (default 10).
	Retries int
	// JitterSeed seeds the deterministic backoff jitter (tests pin it;
	// 0 derives a per-client seed from the clock and a process-global
	// counter).  Jitter spreads every retry delay over [d/2, d) so the
	// explore optimizer's fan-out — dozens of clients told "Retry-After:
	// 1" by the same busy daemon in the same instant — decorrelates
	// instead of stampeding back in lockstep.
	JitterSeed uint64

	jitter atomic.Uint64 // splitmix64 state, lazily seeded
}

// New builds a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// apiError is a non-2xx response.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("svmd: %s (HTTP %d)", e.Msg, e.Status)
}

// call performs one request under withBackoff and decodes the JSON
// response into a fresh T.
func call[T any](ctx context.Context, c *Client, method, path string, body any) (*T, error) {
	var out T
	if err := c.withBackoff(ctx, func() error { return c.do(ctx, method, path, body, &out) }); err != nil {
		return nil, err
	}
	return &out, nil
}

// do performs one request, decoding a JSON body into out and mapping
// non-2xx responses to *apiError.  Transport-level failures on
// idempotent requests (connection refused or reset while a daemon
// restarts, for example) surface as retryable errors so withBackoff can
// reconnect; other requests fail immediately.  GETs are idempotent, and
// so are the cluster protocol's POSTs by design: a replayed join
// re-registers, a replayed lease renews, a replayed complete is
// discarded as a duplicate.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	idempotent := method == http.MethodGet || strings.HasPrefix(path, "/cluster/")
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The daemon content-negotiates /metrics (Prometheus text by
	// default); this client always speaks the JSON API.
	req.Header.Set("Accept", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// A cancelled context is the caller's decision, never retried.
		if idempotent && ctx.Err() == nil {
			return &backoffError{
				apiError:  &apiError{Status: 0, Msg: err.Error()},
				transient: true,
			}
		}
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		ae := statusError(resp)
		if resp.StatusCode == http.StatusTooManyRequests {
			if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
				return &backoffError{apiError: ae, after: time.Duration(sec) * time.Second}
			}
			return &backoffError{apiError: ae, after: time.Second}
		}
		return ae
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statusError maps a non-2xx response to *apiError, carrying the
// daemon's JSON error message when it sent one.
func statusError(resp *http.Response) *apiError {
	var e struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &apiError{Status: resp.StatusCode, Msg: msg}
}

// backoffError wraps a retryable failure: a 429 with the daemon's
// requested delay, or (transient) a transport error on an idempotent
// request, retried on a capped exponential schedule.
type backoffError struct {
	*apiError
	after     time.Duration
	transient bool
}

func (e *backoffError) Unwrap() error { return e.apiError }

// StatusCode extracts the HTTP status from an error this client
// returned: 0 for transport-level failures, -1 for errors that are not
// the client's.  The cluster worker agent routes on it (404 = job
// unknown to the coordinator, drop the report).
func StatusCode(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return -1
}

// jitterClients decorrelates auto-derived seeds of clients created in
// the same clock tick (the explore fan-out case).
var jitterClients atomic.Uint64

// splitmix64 is the finalizer of the splitmix64 generator (same mix the
// fault layer and the explore search use).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nextJitter draws the client's next jitter word: a lock-free
// splitmix64 stream seeded once per client.
func (c *Client) nextJitter() uint64 {
	for {
		s := c.jitter.Load()
		if s == 0 {
			seed := c.JitterSeed
			if seed == 0 {
				seed = uint64(time.Now().UnixNano()) + jitterClients.Add(1)<<32
			}
			s = seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
			if s == 0 {
				s = 0x9e3779b97f4a7c15
			}
			if !c.jitter.CompareAndSwap(0, s) {
				continue
			}
		}
		next := s + 0x9e3779b97f4a7c15
		if next == 0 { // state 0 means "unseeded"; skip over it
			next = 0x9e3779b97f4a7c15
		}
		if c.jitter.CompareAndSwap(s, next) {
			return splitmix64(s)
		}
	}
}

// jittered spreads a backoff delay over [d/2, d): never longer than the
// daemon asked for, never synchronized with other clients.
func jittered(d time.Duration, r uint64) time.Duration {
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(r%uint64(half))
}

// transientDelay is the capped exponential schedule for reconnects:
// 25ms, 50ms, 100ms, ... capped at 500ms.
func transientDelay(attempt int) time.Duration {
	if attempt > 5 { // 25ms<<5 already exceeds the cap; avoid shift overflow
		return 500 * time.Millisecond
	}
	d := 25 * time.Millisecond << uint(attempt)
	if d > 500*time.Millisecond {
		return 500 * time.Millisecond
	}
	return d
}

// withBackoff retries fn after daemon-directed (429 Retry-After) or
// transport-level (capped exponential) backoff, bounded by Retries and
// ctx.  Retries < 0 disables retrying entirely — the cluster worker
// agent's poll loop is its own retry policy.
func (c *Client) withBackoff(ctx context.Context, fn func() error) error {
	retries := c.Retries
	if retries == 0 {
		retries = 10
	}
	for attempt := 0; ; attempt++ {
		err := fn()
		be, ok := err.(*backoffError)
		if !ok || attempt >= retries {
			return err
		}
		delay := be.after
		if be.transient {
			delay = transientDelay(attempt)
		}
		delay = jittered(delay, c.nextJitter())
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Run submits a run and blocks until it reaches a terminal state,
// retrying on backpressure.
func (c *Client) Run(ctx context.Context, req api.RunRequest) (*api.RunStatus, error) {
	return call[api.RunStatus](ctx, c, http.MethodPost, "/runs?wait=1", req)
}

// Submit enqueues a run without waiting.
func (c *Client) Submit(ctx context.Context, req api.RunRequest) (*api.RunStatus, error) {
	return call[api.RunStatus](ctx, c, http.MethodPost, "/runs", req)
}

// Get fetches a job's status; wait blocks until it is terminal.  As an
// idempotent GET it retries through transient connection errors (the
// daemon restarting under the request) with capped backoff.
func (c *Client) Get(ctx context.Context, id string, wait bool) (*api.RunStatus, error) {
	return call[api.RunStatus](ctx, c, http.MethodGet, "/runs/"+url.PathEscape(id)+waitQuery(wait), nil)
}

func waitQuery(wait bool) string {
	if wait {
		return "?wait=1"
	}
	return ""
}

// GetSweep fetches a sweep's progress (idempotent; retried like Get).
func (c *Client) GetSweep(ctx context.Context, id string) (*api.SweepStatus, error) {
	return call[api.SweepStatus](ctx, c, http.MethodGet, "/sweeps/"+url.PathEscape(id), nil)
}

// Cancel cancels a job.
func (c *Client) Cancel(ctx context.Context, id string) (*api.RunStatus, error) {
	return call[api.RunStatus](ctx, c, http.MethodDelete, "/runs/"+url.PathEscape(id), nil)
}

// Sweep submits a batch and blocks until every point is terminal,
// retrying whole-batch admission on backpressure.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepStatus, error) {
	return call[api.SweepStatus](ctx, c, http.MethodPost, "/sweeps?wait=1", req)
}

// Trace fetches a completed job's stitched Chrome/Perfetto timeline —
// the daemon's wall-clock lifecycle spans for the job with the
// simulator's deterministic event trace anchored beneath them — and
// copies it to w (it is a trace_event JSON document, typically saved to
// a file and loaded in Perfetto).
func (c *Client) Trace(ctx context.Context, id string, w io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/runs/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return statusError(resp)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// Metrics fetches the daemon's metrics snapshot.
func (c *Client) Metrics(ctx context.Context) (*api.Metrics, error) {
	return call[api.Metrics](ctx, c, http.MethodGet, "/metrics", nil)
}

// Health fetches the daemon's liveness/drain state.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	return call[api.Health](ctx, c, http.MethodGet, "/healthz", nil)
}

// ---------------------------------------------------------------------------
// Cluster protocol: the worker agent's side of registration, job
// leasing and completion.  All three are idempotent by protocol design,
// so do retries them through transient errors even though they are
// POSTs.

// Join registers a worker with the coordinator.
func (c *Client) Join(ctx context.Context, req api.ClusterJoinRequest) error {
	_, err := call[struct{}](ctx, c, http.MethodPost, "/cluster/join", req)
	return err
}

// Lease requests jobs (and renews held leases; a Max of 0 is a pure
// heartbeat).
func (c *Client) Lease(ctx context.Context, req api.ClusterLeaseRequest) (*api.ClusterLeaseResponse, error) {
	return call[api.ClusterLeaseResponse](ctx, c, http.MethodPost, "/cluster/lease", req)
}

// Complete reports a leased job's terminal result.
func (c *Client) Complete(ctx context.Context, req api.ClusterCompleteRequest) (*api.ClusterCompleteResponse, error) {
	return call[api.ClusterCompleteResponse](ctx, c, http.MethodPost, "/cluster/complete", req)
}

// ClusterStatus fetches the coordinator's membership and scheduling
// snapshot.
func (c *Client) ClusterStatus(ctx context.Context) (*api.ClusterStatus, error) {
	return call[api.ClusterStatus](ctx, c, http.MethodGet, "/cluster/status", nil)
}

// SubmitExplore starts an exploration without waiting, retrying on
// backpressure (429 at the exploration concurrency limit).
func (c *Client) SubmitExplore(ctx context.Context, req explore.Request) (*api.ExploreStatus, error) {
	return call[api.ExploreStatus](ctx, c, http.MethodPost, "/explore", req)
}

// GetExplore fetches an exploration's status; wait blocks until it is
// terminal (idempotent, so it rides through daemon hiccups with capped
// backoff).
func (c *Client) GetExplore(ctx context.Context, id string, wait bool) (*api.ExploreStatus, error) {
	return call[api.ExploreStatus](ctx, c, http.MethodGet, "/explore/"+url.PathEscape(id)+waitQuery(wait), nil)
}

// Explore submits an exploration and blocks until it reaches a terminal
// state: the submit is a short non-idempotent POST, the long wait an
// idempotent GET — so a connection lost mid-search resumes watching
// instead of double-submitting.
func (c *Client) Explore(ctx context.Context, req explore.Request) (*api.ExploreStatus, error) {
	st, err := c.SubmitExplore(ctx, req)
	if err != nil {
		return nil, err
	}
	for st.State == api.StateRunning {
		if st, err = c.GetExplore(ctx, st.ID, true); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// CancelExplore requests cancellation of a running exploration.
func (c *Client) CancelExplore(ctx context.Context, id string) (*api.ExploreStatus, error) {
	return call[api.ExploreStatus](ctx, c, http.MethodDelete, "/explore/"+url.PathEscape(id), nil)
}
