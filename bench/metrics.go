package main

import (
	"encoding/json"
	"fmt"
	"io"

	"modissense/internal/obs"
)

// metricDef declares one reported metric. BENCHMARK.json repeats the names,
// units and directions (and, for end-to-end metrics, the bounds); a test
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median the metric may worsen by
	moves  string  // per-layer only: the end-to-end metric and workload it should move
}

// endToEnd is what a user of the platform sees. Timings are at nominal host
// speed (see ref.go). A bound is at least three times the widest spread of
// ten runs bench/README.md records for the metric on any workload: that is
// what a single run on this sandbox can resolve.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_ms_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "alloc_kb_op", unit: "KiB", better: "lower", bound: 0.10},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.10},
}

// perLayer is what single modules do, named <module>.<what>_<unit>. Counts
// are deltas of the program's own obs families read from outside; times are
// the harness's spans and probes (trace.go).
var perLayer = []metricDef{
	{name: "client.self_ms", unit: "ms", better: "lower", moves: "p50_ms on search_social"},
	{name: "client.tail_ms", unit: "ms", better: "lower", moves: "none: the tail is reported, not gated"},
	{name: "client.tail_pct", unit: "%", better: "higher", moves: "none: which percentile client.tail_ms is"},
	{name: "client.trending_p50_ms", unit: "ms", better: "lower", moves: "ops_s on search_social, mixed"},
	{name: "client.checkin_p50_ms", unit: "ms", better: "lower", moves: "ops_s on mixed; p50_ms on ingest"},
	{name: "core.http_self_ms", unit: "ms", better: "lower", moves: "p50_ms, alloc_kb_op on search_social; ops_s on ingest"},
	{name: "core.platform_self_ms", unit: "ms", better: "lower", moves: "p50_ms on search_social; ops_s on ingest"},
	{name: "core.resp_kb_op", unit: "KiB", better: "lower", moves: "alloc_kb_op on search_social"},
	{name: "core.boot_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "core.preload_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "social.auth_us", unit: "us", better: "lower", moves: "p50_ms on search_social"},
	{name: "social.collect_s", unit: "s", better: "lower", moves: "setup_s"},
	{name: "query.engine_ms", unit: "ms", better: "lower", moves: "p50_ms, ops_s on search_scan; p50_ms on mixed"},
	{name: "query.coprocessor_ms_op", unit: "ms", better: "lower", moves: "p50_ms, cpu_ms_op on search_scan"},
	{name: "query.merge_ms_op", unit: "ms", better: "lower", moves: "p50_ms on search_scan"},
	{name: "query.merge_candidates_op", unit: "count", better: "lower", moves: "p50_ms, alloc_kb_op on search_scan"},
	{name: "exec.tasks_op", unit: "count", better: "lower", moves: "cpu_ms_op on search_scan, mixed"},
	{name: "exec.task_wait_ms_op", unit: "ms", better: "lower", moves: "p50_ms on search_scan"},
	{name: "exec.gather_overhead_us", unit: "us", better: "lower", moves: "p50_ms on mixed; cpu_ms_op on search_scan"},
	{name: "kvstore.multiscan_ms", unit: "ms", better: "lower", moves: "p50_ms, ops_s on search_scan; not search_social"},
	{name: "kvstore.rows_scanned_op", unit: "count", better: "lower", moves: "p50_ms on search_scan, mixed"},
	{name: "kvstore.rows_per_result", unit: "count", better: "lower", moves: "p50_ms on search_scan"},
	{name: "kvstore.blocks_decoded_op", unit: "count", better: "lower", moves: "p50_ms, alloc_kb_op on search_scan"},
	{name: "kvstore.blocks_skipped_op", unit: "count", better: "higher", moves: "p50_ms on search_scan"},
	{name: "kvstore.block_cache_hit_ratio", unit: "ratio", better: "higher", moves: "p50_ms, alloc_kb_op on search_scan"},
	{name: "kvstore.segments_pruned_op", unit: "count", better: "higher", moves: "p50_ms on mixed"},
	{name: "kvstore.putbatch_us_checkin", unit: "us", better: "lower", moves: "ops_s, cpu_ms_op on ingest"},
	{name: "kvstore.wal_group_commits_op", unit: "count", better: "lower", moves: "ops_s on ingest"},
	{name: "kvstore.flushes", unit: "count", better: "lower", moves: "cpu_ms_op, heap_mb on ingest"},
	{name: "kvstore.compactions", unit: "count", better: "lower", moves: "cpu_ms_op on ingest; p50_ms on mixed"},
	{name: "kvstore.write_amp", unit: "ratio", better: "lower", moves: "cpu_ms_op on ingest"},
	{name: "kvstore.write_stalls", unit: "count", better: "lower", moves: "ops_s on ingest"},
	{name: "kvstore.segment_resident_mb", unit: "MiB", better: "lower", moves: "heap_mb on ingest"},
	{name: "kvstore.settle_s", unit: "s", better: "lower", moves: "cpu_ms_op on ingest"},
	{name: "repos.decode_us_row", unit: "us", better: "lower", moves: "p50_ms, ops_s on search_scan"},
	{name: "repos.encode_us_checkin", unit: "us", better: "lower", moves: "ops_s on ingest"},
	{name: "repos.storebatch_ms", unit: "ms", better: "lower", moves: "p50_ms, ops_s on ingest"},
	{name: "repos.storebatch_bare_ms", unit: "ms", better: "lower", moves: "ops_s on ingest (store cost without the ingest hook)"},
	{name: "matview.cache_hit_ratio", unit: "ratio", better: "higher", moves: "p50_ms on search_social, mixed"},
	{name: "matview.cache_invalidations_op", unit: "count", better: "lower", moves: "ops_s on mixed"},
	{name: "matview.cache_stale_stores", unit: "count", better: "lower", moves: "p50_ms on mixed"},
	{name: "matview.cache_mb", unit: "MiB", better: "lower", moves: "heap_mb on search_social, mixed"},
	{name: "matview.apply_us_checkin", unit: "us", better: "lower", moves: "ops_s on ingest, mixed"},
	{name: "matview.topk_ms", unit: "ms", better: "lower", moves: "ops_s on search_social"},
	{name: "pubsub.publish_us_checkin", unit: "us", better: "lower", moves: "ops_s, cpu_ms_op on ingest"},
	{name: "pubsub.matches_op", unit: "count", better: "lower", moves: "ops_s on ingest"},
	{name: "pubsub.dropped", unit: "count", better: "lower", moves: "none: queues nobody drains overflow by design"},
	{name: "cluster.sim_latency_ms", unit: "ms", better: "lower", moves: "none: simulated time, guards the Fig. 2 reproduction"},
	{name: "runtime.gc_cycles", unit: "count", better: "lower", moves: "alloc_kb_op, cpu_ms_op everywhere"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "p50_ms everywhere"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "none: traced client mean over untraced mean"},
	{name: "host.ref_ms", unit: "ms", better: "lower", moves: "none: sides whose host.ref_ms differ by >10% are not comparable"},
	{name: "host.ref_spread", unit: "ratio", better: "lower", moves: "none: p90/p10 of the reference passes"},
	{name: "host.raw_ops_s", unit: "1/s", better: "higher", moves: "none: ops_s before normalisation"},
	{name: "host.raw_p50_ms", unit: "ms", better: "lower", moves: "none: p50_ms before normalisation"},
	{name: "host.raw_setup_s", unit: "s", better: "lower", moves: "none: setup_s before normalisation"},
}

// values maps metric names to measured values.
type values map[string]float64

// emit writes the result line the driver reads: one JSON object, last on
// standard output, with exactly the metrics of defs.
func emit(w io.Writer, defs []metricDef, v values, attempted, failed int, correct bool) error {
	type entry struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]entry `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]entry{}}
	for _, d := range defs {
		val, ok := v[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = entry{Value: val, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printTable writes every measured value by name with its unit, for people;
// a per-layer metric is followed by the end-to-end metric and workload it
// should move.
func printTable(w io.Writer, title string, defs []metricDef, v values) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		if val, ok := v[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %14.4f %-6s", d.name, val, d.unit)
			if d.moves != "" {
				fmt.Fprintf(w, "  -> %s", d.moves)
			}
			fmt.Fprintln(w)
		}
	}
}

// counters reads the program's own metric families from outside: asking the
// registry for a family that exists returns the live handle.
type counters map[string]float64

type family struct {
	key  string
	name string
	// background families move on the store's own goroutines, so a probe's
	// share of them cannot be told apart and is not subtracted.
	background bool
}

var counterFamilies = []family{
	{key: "rows_scanned", name: "kvstore_rows_scanned_total"},
	{key: "block_decodes", name: "kvstore_block_decodes_total"},
	{key: "blocks_skipped", name: "kvstore_blocks_skipped_total"},
	{key: "block_cache_hits", name: "kvstore_block_cache_hits_total"},
	{key: "block_cache_misses", name: "kvstore_block_cache_misses_total"},
	{key: "segments_pruned", name: "kvstore_multiscan_segments_pruned_total"},
	{key: "wal_group_commits", name: "kvstore_wal_group_commits_total"},
	{key: "flushes", name: "kvstore_memtable_flushes_total", background: true},
	{key: "bg_compactions", name: "kvstore_background_compactions_total", background: true},
	{key: "major_compactions", name: "kvstore_compactions_total", background: true},
	{key: "write_stalls", name: "kvstore_write_stalls_total", background: true},
	{key: "bytes_ingested", name: "kvstore_bytes_ingested_total", background: true},
	{key: "bytes_flushed", name: "kvstore_bytes_flushed_total", background: true},
	{key: "bytes_compacted", name: "kvstore_bytes_compacted_total", background: true},
	{key: "exec_tasks", name: "exec_tasks_total"},
	{key: "cache_hits", name: "matview_cache_hits_total"},
	{key: "cache_misses", name: "matview_cache_misses_total"},
	{key: "cache_invalidations", name: "matview_cache_invalidations_total"},
	{key: "cache_stale_stores", name: "matview_cache_stale_stores_total"},
	{key: "pubsub_matches", name: "pubsub_matches_total"},
	{key: "pubsub_dropped", name: "pubsub_events_dropped_total"},
}

// histogramFamilies are read as their sum: seconds spent, or items counted.
var histogramFamilies = []family{
	{key: "coprocessor_seconds", name: "query_coprocessor_seconds"},
	{key: "merge_seconds", name: "query_merge_seconds"},
	{key: "merge_candidates", name: "query_merge_candidates"},
	{key: "task_wait_seconds", name: "exec_task_wait_seconds"},
}

// The handles are resolved once: the families are registered by the
// packages this one imports, which initialise first.
var (
	counterHandles   = make([]*obs.Counter, len(counterFamilies))
	histogramHandles = make([]*obs.Histogram, len(histogramFamilies))
)

func init() {
	for i, f := range counterFamilies {
		counterHandles[i] = obs.Default().Counter(f.name, "")
	}
	for i, f := range histogramFamilies {
		histogramHandles[i] = obs.Default().Histogram(f.name, "", obs.LatencyBuckets())
	}
}

func readCounters() counters {
	c := make(counters, len(counterFamilies)+len(histogramFamilies))
	for i, f := range counterFamilies {
		c[f.key] = float64(counterHandles[i].Value())
	}
	for i, f := range histogramFamilies {
		c[f.key] = histogramHandles[i].Sum()
	}
	return c
}

// minus returns c − d for every key.
func (c counters) minus(d counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - d[k]
	}
	return out
}

// addForeground accumulates d's foreground families into c.
func (c counters) addForeground(d counters) {
	for _, f := range counterFamilies {
		if !f.background {
			c[f.key] += d[f.key]
		}
	}
	for _, f := range histogramFamilies {
		c[f.key] += d[f.key]
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
