package main

import (
	"encoding/json"
	"math"
	"sort"
)

// endToEnd lists the metrics a user of the simulator sees, measured on
// untraced passes.  Bound is the share of the parent commit's median by
// which a metric may worsen before a change counts as a regression.
// failed_frac and leaked_goroutines are printed as text on every run but
// are not listed here: both are 0 on some workloads, and a bound relative
// to a zero median means nothing.  failed_frac travels as the result's
// failed/attempted counts, leaked_goroutines as a per-layer metric.
var endToEnd = []e2eMetric{
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// selfTime names the metric of each profile layer (see layers.go): the
// CPU seconds per pass, summed over threads, of the samples that fold
// into the layer.  Samples come every 10 ms of CPU time, so values are
// multiples of 0.01, and 0 for a layer the workload never enters.
var selfTime = []struct{ layer, metric string }{
	{"sim", "sim.self_s"},
	{"sched", "runtime.sched_self_s"},
	{"core", "core.self_s"},
	{"cache", "cache.self_s"},
	{"mem", "mem.self_s"},
	{"apps", "apps.self_s"},
	{"proto", "proto.self_s"},
	{"comm", "comm.self_s"},
	{"consistency", "consistency.self_s"},
	{"gc", "runtime.gc_self_s"},
	{"harness", "harness.self_s"},
	{"server", "server.self_s"},
	{"store", "store.self_s"},
	{"other", "other.self_s"},
}

// rowCounters maps per-layer counter metrics onto the machine-wide
// counters every result row carries (harness.RunRow.Counters), summed
// over the pass's successful operations.
var rowCounters = []struct{ metric, counter string }{
	{"core.loads", "loads"},
	{"core.stores", "stores"},
	{"cache.l1_misses", "l1Misses"},
	{"cache.l2_misses", "l2Misses"},
	{"proto.page_fetches", "pageFetches"},
	{"proto.block_fetches", "blockFetches"},
	{"proto.diffs_created", "diffsCreated"},
	{"proto.diff_words_compared", "diffWordsCompared"},
	{"proto.twins_created", "twinsCreated"},
	{"proto.invalidations", "invalidations"},
	{"proto.lock_acquires", "lockAcquires"},
	{"proto.barriers_crossed", "barriersCrossed"},
	{"comm.msgs_sent", "msgsSent"},
	{"comm.bytes_sent", "bytesSent"},
	{"comm.retransmits", "retransmits"},
	{"comm.msgs_dropped", "msgsDropped"},
}

// rowCycles maps the simulated-time invariants onto the row's cycle
// count and Figure-4 breakdown categories.
var rowCycles = []struct{ metric, category string }{
	{"stats.busy_cycles", "busy"},
	{"stats.cache_cycles", "cache"},
	{"stats.data_cycles", "data"},
	{"stats.lock_cycles", "lock"},
	{"stats.barrier_cycles", "barrier"},
	{"stats.protocol_cycles", "protocol"},
	{"stats.handler_cycles", "handler"},
}

// perLayer lists the traced-run metrics in report order.  Counters of
// simulated work (core, cache, proto, comm, consistency, stats) are
// deterministic: they must repeat exactly across passes, and a host-side
// change must never move them.
func perLayer() []layerMetric {
	var out []layerMetric
	for _, s := range selfTime {
		out = append(out, layerMetric{s.metric, "cpu_s", "lower"})
	}
	for _, c := range rowCounters {
		out = append(out, layerMetric{c.metric, "count", "lower"})
	}
	out = append(out,
		layerMetric{"consistency.loads_checked", "count", "lower"},
		layerMetric{"consistency.sync_ops", "count", "lower"},
		layerMetric{"runtime.allocs_per_op", "count", "lower"},
		layerMetric{"runtime.alloc_bytes_per_op", "B", "lower"},
		layerMetric{"runtime.gc_cycles", "count", "lower"},
		layerMetric{"runner.runs", "count", "lower"},
		layerMetric{"runner.hits", "count", "higher"},
		layerMetric{"runner.waits", "count", "higher"},
		layerMetric{"store.hits", "count", "higher"},
		layerMetric{"store.misses", "count", "lower"},
		layerMetric{"store.puts", "count", "lower"},
		layerMetric{"store.bytes", "B", "lower"},
		layerMetric{"server.rejected", "count", "lower"},
		layerMetric{"leaked_goroutines", "count", "lower"},
		layerMetric{"trace.overhead_frac", "ratio", "lower"},
		layerMetric{"stats.sim_cycles", "cycles", "lower"},
	)
	for _, c := range rowCycles {
		out = append(out, layerMetric{c.metric, "cycles", "lower"})
	}
	return out
}

// runSeconds is how long one benchmark run measures.
const runSeconds = 30

// manifest renders BENCHMARK.json: the command, the workloads and every
// metric the benchmark reports.  A test keeps the committed file equal
// to it.  The layer of a per-layer metric is its name up to the first
// dot (runtime.*, core.*, proto.*, ...).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "swsmbench/run.sh"},
		Paths:      []string{"swsmbench"},
		RunSeconds: runSeconds,
		Workloads:  wls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer(),
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-ranked sample that still has at least ten
// samples above it, and the percentile that rank is: of n samples,
// (n-10)/n of them are at or below it.  ok is false for fewer than 11
// samples.
func tail(v []float64) (value, pct float64, ok bool) {
	n := len(v)
	if n < 11 {
		return 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}
