package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swsm/internal/apps"
	"swsm/internal/fault"
	"swsm/internal/harness"
	"swsm/internal/server"
	"swsm/internal/server/api"
	"swsm/internal/server/client"
)

// The svmd-jobs stream.  Per pass, phase one sends every fresh spec once
// plus the repeats and the failing requests, mixed; the daemon then
// restarts over the same store and phase two sends phase one's requests
// again, less the failing ones.
// The fresh specs are the fixed tiny grid on the paper's base system; the
// seed picks the order, which specs repeat and where, the failing specs
// and their fault seeds, the replay order and the re-checked sample.
//
// Where the shares come from:
//   - Repeats: the paper's whole evaluation, `svmbench -all`, requests
//     884 simulations, of which 377 repeat an earlier spec (its sweep
//     summaries add up to 507 runs and 377 cache hits, at Tiny scale with
//     4, 8 or 16 procs alike).  So repeats make up 377/884 of phase one's
//     successful requests.
//   - Replays: the repository's documented warm rerun sends the same
//     requests again after a restart and is answered from the store alone
//     (EXPERIMENTS.md on `svmbench -figure 3 -server`; the CI service and
//     explore smoke jobs require zero simulations after the restart).
//     The failing requests are not replayed: a failed job is not stored,
//     so it would simulate again.
//   - Failing: one request in ten of phase one.
//   - Coalescing: assumed.  No recorded use of svmd says how often a
//     repeat arrives while its original is in flight.  A quarter of the
//     repeats are sent right behind their original, so that path is
//     exercised on every pass without letting its slow operations,
//     each a whole simulation of a random spec, set the percentiles.
//
// With these shares about two thirds of a pass's operations are answered
// without a new simulation, so op_p50_ms on this workload is the service
// stack's latency for a job served from the store.
const (
	svmdSlots    = 2 // daemon pool slots, and closed-loop callers: the box has two cores
	svmdSamples  = 4 // fresh rows re-run locally and compared byte for byte
	svmdFailProc = 4

	allRequests, allRepeats = 884, 377 // svmbench -all: requested simulations, and repeats among them
)

// svmdRepeats and svmdFailing size phase one from the fresh grid: repeats
// are allRepeats/allRequests of the successful requests, failing ones a
// tenth of all of phase one.
var (
	svmdFresh   = len(svmdApps) * len(svmdProtos) * len(svmdProcs)
	svmdRepeats = (svmdFresh*allRepeats + (allRequests-allRepeats)/2) / (allRequests - allRepeats)
	svmdFailing = (svmdFresh + svmdRepeats + 4) / 9
)

var (
	svmdApps   = []string{"fft", "lu", "ocean", "radix", "barnes", "water-nsquared", "volrend", "raytrace"}
	svmdProtos = []harness.ProtocolKind{harness.HLRC, harness.SC, harness.LRC}
	svmdProcs  = []int{2, 4, 8}
)

type jobKind int

const (
	fresh jobKind = iota
	repeat
	failing
)

func (k jobKind) String() string { return [...]string{"fresh", "repeat", "failing"}[k] }

type jobReq struct {
	kind jobKind
	spec harness.RunSpec
	orig int // repeat: index of the request it repeats
}

type svmdJobs struct {
	dir     string
	reqs    []jobReq
	replays []int // the fresh and repeated requests, in the order replayed after the restart
	samples []int // indices of fresh requests re-run locally by check

	d          *daemon
	clients    []*client.Client
	transports []*countingTransport

	rows       []*harness.RunRow // phase-one result per request
	ops        []int             // operation index per request
	replayRows []*harness.RunRow
	replayOps  []int
	replayRuns int64 // simulations the restarted daemon executed
}

// wrongOutput marks an operation whose returned output contradicts its
// oracle (as opposed to one that failed outright).
type wrongOutput struct{ msg string }

func (e *wrongOutput) Error() string { return e.msg }

func setupSvmd(p *pass) (instance, error) {
	w := &svmdJobs{}
	w.stream(p.seed)
	dir, err := os.MkdirTemp(p.out, "svmd-store-")
	if err != nil {
		return nil, err
	}
	w.dir = dir
	p.span("server.New", "server", "setup", func() { w.d, err = startDaemon(dir) })
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for c := 0; c < svmdSlots; c++ {
		t := &countingTransport{base: &http.Transport{}}
		cl := client.New(w.d.url)
		cl.HTTP = &http.Client{Transport: t}
		cl.JitterSeed = p.seed + uint64(c) + 1
		w.clients = append(w.clients, cl)
		w.transports = append(w.transports, t)
	}
	return w, nil
}

// stream derives the pass's requests from the seed.
func (w *svmdJobs) stream(seed uint64) {
	rng := splitmix64(seed)
	for _, app := range svmdApps {
		for _, prot := range svmdProtos {
			for _, procs := range svmdProcs {
				spec := harness.DefaultSpec(app, prot)
				spec.Scale = apps.Tiny
				spec.Procs = procs
				w.reqs = append(w.reqs, jobReq{kind: fresh, spec: spec})
			}
		}
	}
	nFresh := len(w.reqs)
	for i := nFresh - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i]
	}
	insert := func(at int, r jobReq) {
		w.reqs = append(w.reqs[:at], append([]jobReq{r}, w.reqs[at:]...)...)
	}
	for range svmdRepeats {
		// A quarter of the repeats follow their original at once, so the
		// other caller sends them while the original is in flight.
		var orig int
		for {
			if orig = rng.intn(len(w.reqs)); w.reqs[orig].kind == fresh {
				break
			}
		}
		at := orig + 1
		if rng.intn(4) != 0 {
			at += rng.intn(len(w.reqs) - orig)
		}
		insert(at, jobReq{kind: repeat, spec: w.reqs[orig].spec})
	}
	for range svmdFailing {
		spec := harness.DefaultSpec(svmdApps[rng.intn(len(svmdApps))], svmdProtos[rng.intn(len(svmdProtos))])
		spec.Scale = apps.Tiny
		spec.Procs = svmdFailProc
		spec.Fault = fault.Spec{Seed: rng.next(), DropPPM: fault.PPM, Reliable: true}
		insert(rng.intn(len(w.reqs)+1), jobReq{kind: failing, spec: spec})
	}
	first := map[harness.RunSpec]int{}
	for i := range w.reqs {
		r := &w.reqs[i]
		switch r.kind {
		case fresh:
			first[r.spec] = i
			w.replays = append(w.replays, i)
		case repeat:
			r.orig = first[r.spec]
			w.replays = append(w.replays, i)
		}
	}
	for i := len(w.replays) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		w.replays[i], w.replays[j] = w.replays[j], w.replays[i]
	}
	for _, i := range w.replays {
		if len(w.samples) < svmdSamples && w.reqs[i].kind == fresh {
			w.samples = append(w.samples, i)
		}
	}
}

// serve hands requests 0..n-1 to the closed-loop callers in order: each
// caller sends its next request only after the previous one returned.
func (w *svmdJobs) serve(n int, do func(i int, c *client.Client, caller int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i, cl, c)
			}
		}()
	}
	wg.Wait()
}

func (w *svmdJobs) run(p *pass) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w.rows = make([]*harness.RunRow, len(w.reqs))
	w.ops = make([]int, len(w.reqs))
	w.serve(len(w.reqs), func(i int, cl *client.Client, caller int) {
		r := w.reqs[i]
		w.ops[i] = p.op("client.Run "+r.kind.String(), "server", caller, func() error {
			st, err := cl.Run(ctx, api.RunRequest{Spec: r.spec})
			if err != nil {
				return err
			}
			if r.kind == failing {
				switch {
				case st.State == api.StateFailed && strings.Contains(st.Error, "undeliverable"):
					return nil
				case st.State == api.StateDone:
					return &wrongOutput{fmt.Sprintf("job %s with a 100%%-drop plan succeeded", st.ID)}
				}
				return fmt.Errorf("job %s with a 100%%-drop plan: state %s, error %q", st.ID, st.State, st.Error)
			}
			if st.State != api.StateDone || st.Row == nil {
				return fmt.Errorf("job %s: state %s, error %q", st.ID, st.State, st.Error)
			}
			w.rows[i] = st.Row
			p.addRow(st.Row, r.kind == fresh)
			return nil
		})
	})

	var restartErr error
	p.span("daemon.restart", "server", "pass", func() { restartErr = w.restart(ctx, p) })

	w.replayRows = make([]*harness.RunRow, len(w.replays))
	w.replayOps = make([]int, len(w.replays))
	w.serve(len(w.replays), func(k int, cl *client.Client, caller int) {
		w.replayOps[k] = p.op("client.Run replay", "server", caller, func() error {
			if restartErr != nil {
				return fmt.Errorf("daemon restart: %w", restartErr)
			}
			st, err := cl.Run(ctx, api.RunRequest{Spec: w.reqs[w.replays[k]].spec})
			if err != nil {
				return err
			}
			if st.State != api.StateDone || st.Row == nil {
				return fmt.Errorf("replay job %s: state %s, error %q", st.ID, st.State, st.Error)
			}
			if !st.Cached {
				return fmt.Errorf("replay job %s was simulated again, not read from the store", st.ID)
			}
			w.replayRows[k] = st.Row
			p.addRow(st.Row, false)
			return nil
		})
	})
}

// restart stops the daemon as svmd stops on SIGTERM and starts a new one
// over the same store.
func (w *svmdJobs) restart(ctx context.Context, p *pass) error {
	if err := w.collect(ctx, p); err != nil {
		return err
	}
	if err := w.d.stop(); err != nil {
		return err
	}
	var err error
	if w.d, err = startDaemon(w.dir); err != nil {
		return err
	}
	for _, cl := range w.clients {
		cl.BaseURL = w.d.url
	}
	return nil
}

// collect reads the daemon's /metrics counters into the pass.
func (w *svmdJobs) collect(ctx context.Context, p *pass) error {
	m, err := w.clients[0].Metrics(ctx)
	if err != nil {
		return err
	}
	p.runner.Runs += m.Runner.Runs
	p.runner.Hits += m.Runner.Hits
	p.runner.Waits += m.Runner.Waits
	p.store.Hits += m.Store.Hits
	p.store.Misses += m.Store.Misses
	p.store.Puts += m.Store.Puts
	p.store.Bytes = m.Store.Bytes
	w.replayRuns = m.Runner.Runs
	return nil
}

func (w *svmdJobs) stop(p *pass) error {
	defer os.RemoveAll(w.dir)
	if w.d == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := w.collect(ctx, p)
	if e := w.d.stop(); err == nil {
		err = e
	}
	for _, t := range w.transports {
		t.base.CloseIdleConnections()
		p.rejects += int(t.rejected.Load())
	}
	return err
}

// check compares repeats and replays with the rows their originals
// returned, re-runs a seeded sample of fresh specs locally and requires
// byte-equal rows, and requires the restarted daemon to have run no
// simulation at all.
func (w *svmdJobs) check(p *pass) {
	for i, r := range w.reqs {
		if r.kind == repeat {
			w.same(p, w.ops[i], w.rows[i], w.rows[r.orig], "repeat")
		}
	}
	for k, i := range w.replays {
		w.same(p, w.replayOps[k], w.replayRows[k], w.rows[i], "replay")
	}
	if w.replayRuns != 0 {
		p.wrong(-1, "the restarted daemon ran %d simulations; replays must all come from the store", w.replayRuns)
	}
	for _, i := range w.samples {
		if w.rows[i] == nil {
			continue
		}
		var res *harness.Result
		var err error
		p.span("harness.Run", "harness", "check", func() { res, err = harness.Run(w.reqs[i].spec) })
		if err != nil {
			p.wrong(w.ops[i], "local run of a daemon-served spec failed: %v", err)
			continue
		}
		local := harness.NewRunRow(res)
		w.same(p, w.ops[i], w.rows[i], &local, "daemon row vs local run")
	}
}

// same fails operation op as wrong when two rows of one spec differ in
// their JSON bytes.  A missing row means an operation already failed.
func (w *svmdJobs) same(p *pass, op int, got, want *harness.RunRow, what string) {
	if got == nil || want == nil {
		return
	}
	a, errA := json.Marshal(got)
	b, errB := json.Marshal(want)
	if err := errors.Join(errA, errB); err != nil {
		p.wrong(op, "%s: %v", what, err)
		return
	}
	if !bytes.Equal(a, b) {
		p.wrong(op, "%s: rows of %s differ", what, got.Key)
	}
}

// daemon is one svmd lifetime: a server over the pass's store, served
// on a loopback port.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := server.New(server.Config{Parallel: svmdSlots, StoreDir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon as svmd does on SIGTERM and waits for its HTTP
// server to exit.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Drain(ctx)
	if e := d.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-d.served; !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// countingTransport counts the daemon's admission refusals (429 and
// 503) that the client otherwise absorbs in its retry loop.
type countingTransport struct {
	base     *http.Transport
	rejected atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) {
		t.rejected.Add(1)
	}
	return resp, err
}
