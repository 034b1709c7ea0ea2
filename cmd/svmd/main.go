// Command svmd is the experiment service daemon: a long-lived HTTP/JSON
// server that executes simulation runs on a bounded scheduler, coalesces
// identical in-flight requests, and answers repeated configurations from
// a persistent content-addressed result store — so a warm daemon serves
// sweep reruns without re-simulating, across restarts.
//
// Examples:
//
//	svmd -addr :7099 -store /var/tmp/svmd-store
//	curl -s localhost:7099/healthz
//	curl -s -X POST 'localhost:7099/runs?wait=1' -d '{"spec":{...},"speedup":true}'
//	curl -N localhost:7099/events
//	curl -s localhost:7099/metrics                 # Prometheus exposition
//	curl -s 'localhost:7099/metrics?format=json'   # JSON snapshot
//
// Cluster modes (see README "Running a cluster"):
//
//	svmd -coordinator -addr :7100 -store /var/tmp/svmd-coord
//	svmd -addr :7110 -join http://127.0.0.1:7100 -node-id w1
//
// A coordinator is the same daemon with its queued jobs sharded across
// joined workers by consistent hashing on the result content key; a
// worker is a normal daemon plus an agent that leases jobs from the
// coordinator and executes them locally.  A coordinator that dies is
// restarted over the same store and the sweep resubmitted: completed
// points come back from the stores, the rest recompute byte-identically.
//
// Observability: structured leveled logs go to stderr (-log-level,
// -log-json), every job's records carry its ID from enqueue to store
// write, /metrics serves Prometheus text by default, /debug/pprof/* is
// mounted, and -slo-ms arms a latency objective whose breaches (and any
// job failure) dump the flight recorder into -debug-dir.
//
// SIGTERM/SIGINT drain gracefully, coordinators included: new
// submissions get 503, queued and running jobs finish (bounded by
// -drain-timeout, after which queued work is cancelled), and every
// computed result is already durable in the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"swsm/internal/comm"
	"swsm/internal/obs"
	"swsm/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7099", "listen address")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = one per CPU)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4x workers); per-worker dispatch queue depth in -coordinator mode (0 = 64)")
		storeDir = flag.String("store", defaultStoreDir(), "persistent result store directory (empty = no persistence)")
		storeMax = flag.Int64("store-max", 256<<20, "result store size bound in bytes")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "how long a drain waits for in-flight jobs before cancelling queued work")
		logLevel = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON lines instead of human-readable text")
		sloMS    = flag.Int64("slo-ms", 0, "per-job latency objective in milliseconds; breaches dump the flight recorder (0 = disabled)")
		debugDir = flag.String("debug-dir", "", "directory for flight-recorder dumps on job failure or SLO breach (empty = in-memory ring only)")

		// Cluster flags.
		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator: queued jobs go to joined workers instead of the local pool")
		joinURL     = flag.String("join", "", "worker mode: the coordinator URL to lease jobs from")
		nodeID      = flag.String("node-id", "", "worker mode: stable cluster identity (default: -addr); ring placement hashes it")
		hbTTL       = flag.Duration("heartbeat-ttl", server.DefaultHeartbeatTTL, "coordinator: declare a worker lost after this much heartbeat silence")
		leaseTTL    = flag.Duration("lease-ttl", server.DefaultLeaseTTL, "coordinator: job lease duration (renewed by worker polls)")
		leasePoll   = flag.Duration("lease-poll", 200*time.Millisecond, "worker: lease poll / heartbeat interval")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "svmd: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(2)
	}
	if *coordinator && *joinURL != "" {
		fmt.Fprintln(os.Stderr, "svmd: -coordinator and -join are exclusive: a coordinator would lease its own jobs to itself")
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)
	// The simulated transport logs terminal delivery failures through the
	// same process-wide logger (the cold path right before a run fails).
	comm.SetLogger(logger)

	cfg := server.Config{
		Parallel:      *parallel,
		QueueDepth:    *queue,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		Logger:        logger,
		SLO:           time.Duration(*sloMS) * time.Millisecond,
		DebugDir:      *debugDir,
	}
	if *coordinator {
		cfg.Coordinator = &server.CoordinatorConfig{HeartbeatTTL: *hbTTL, LeaseTTL: *leaseTTL}
	}
	srv, err := server.New(cfg)
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	st := srv.StoreStats()
	logger.Info("listening",
		"addr", *addr, "coordinator", *coordinator, "store", *storeDir,
		"warmEntries", st.Entries, "warmBytes", st.Bytes)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Worker mode: lease jobs from the coordinator alongside the local
	// HTTP API (a worker is still a fully usable daemon).
	workerDone := make(chan struct{})
	if *joinURL != "" {
		id := *nodeID
		if id == "" {
			id = *addr
		}
		logger.Info("joining cluster", "id", id, "coordinator", *joinURL)
		go func() {
			defer close(workerDone)
			srv.RunWorker(ctx, server.WorkerConfig{ID: id, Coordinator: *joinURL, Poll: *leasePoll})
		}()
	} else {
		close(workerDone)
	}

	select {
	case <-ctx.Done():
		logger.Info("draining", "timeout", *drainTO)
	case err := <-errc:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	}

	<-workerDone
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete, queued work cancelled", "error", err)
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown", "error", err)
	}
	m := srv.Metrics()
	logger.Info("stopped",
		"simulations", m.Runner.Runs,
		"storeHitRatio", m.StoreHitRatio,
		"evictions", m.Store.Evictions)
}

// defaultStoreDir places the store under the user cache dir, falling
// back to a temp path when none is known.
func defaultStoreDir() string {
	if dir, err := os.UserCacheDir(); err == nil {
		return fmt.Sprintf("%s/svmd/store", dir)
	}
	return fmt.Sprintf("%s/svmd-store", os.TempDir())
}
