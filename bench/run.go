package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// phase is everything one pass over the measured ops recorded.
type phase struct {
	ops int
	// latMs[k] are kind k's client-observed latencies at nominal host speed;
	// rawLatMs the same as the clock read them.
	latMs, rawLatMs [numOpKinds][]float64
	// Per block: throughput at nominal speed and as measured, CPU seconds
	// at nominal speed.
	blockOpsS, blockRawOpsS, blockCPUS []float64
	refMs                              []float64
	// kept are the read answers held back for the oracle.
	kept []keptResult
	// simMs are the simulated-cluster latencies of the searches.
	simMs       []float64
	resultsSeen int // POIs returned by searches
	failed      int

	allocBytes uint64
	gcCycles   uint32
	gcPauseMs  float64
	counters   counters // the program's families over the phase, probes' share removed
	settleS    float64
	settleCPUS float64 // CPU seconds of the settle, at nominal speed
	heapMB     float64
}

type keptResult struct {
	op  int
	res result
}

// execFunc runs op i and returns what it left behind and how long the op
// itself took.
type execFunc func(i int, o *op) (result, time.Duration)

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runPhase drives ops through exec with one closed-loop client: the next
// request is sent when the previous one has answered. The ops are cut into
// measuredBlocks blocks of equal count with a reference pass before the first
// and after each; a block's timings are divided by the speed factor of the
// two passes around it. sumOps makes a block last the sum of its ops' own
// durations rather than its wall time, for runs that do other work between
// ops.
func runPhase(e *env, ref *refKernel, ops []op, exec execFunc, sumOps bool, probeShare func() counters) *phase {
	ph := &phase{ops: len(ops)}
	for k := range ph.latMs {
		ph.latMs[k] = make([]float64, 0, len(ops))
		ph.rawLatMs[k] = make([]float64, 0, len(ops))
	}
	perBlock := len(ops) / measuredBlocks
	ph.kept = make([]keptResult, 0, len(ops)/e.size.verifyEvery+1)
	ph.simMs = make([]float64, 0, len(ops))
	type lat struct {
		kind opKind
		ms   float64
	}
	blockLat := make([]lat, 0, perBlock)
	reads := 0

	e.tr.respBytes, e.tr.responses = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	startCounters := readCounters()
	ph.refMs = append(ph.refMs, ref.pass())
	for b := 0; b < measuredBlocks; b++ {
		blockLat = blockLat[:0]
		var opSeconds float64
		cpu0, wall0 := cpuSeconds(), time.Now()
		for i := b * perBlock; i < (b+1)*perBlock; i++ {
			o := &ops[i]
			res, took := exec(i, o)
			opSeconds += took.Seconds()
			blockLat = append(blockLat, lat{o.kind, float64(took) / float64(time.Millisecond)})
			if res.err != nil {
				ph.fail(fmt.Sprintf("op %d (%s): %v", i, o.kind, res.err))
				continue
			}
			if o.kind == opPush {
				continue
			}
			if o.kind == opSearch {
				ph.simMs = append(ph.simMs, res.simSeconds*1000)
				ph.resultsSeen += len(res.pois)
			}
			if reads++; reads%e.size.verifyEvery == 0 {
				ph.kept = append(ph.kept, keptResult{op: i, res: res})
			}
		}
		wall, cpu := time.Since(wall0).Seconds(), cpuSeconds()-cpu0
		if sumOps {
			wall = opSeconds
		}
		ph.refMs = append(ph.refMs, ref.pass())
		f := speedFactor(ph.refMs[b], ph.refMs[b+1])
		for _, l := range blockLat {
			ph.rawLatMs[l.kind] = append(ph.rawLatMs[l.kind], l.ms)
			ph.latMs[l.kind] = append(ph.latMs[l.kind], l.ms/f)
		}
		ph.blockRawOpsS = append(ph.blockRawOpsS, float64(perBlock)/wall)
		ph.blockOpsS = append(ph.blockOpsS, float64(perBlock)/(wall/f))
		ph.blockCPUS = append(ph.blockCPUS, cpu/f)
	}
	// Flushes and compactions the ops set off are still running; whether one
	// finishes inside the last block or just after it is a matter of timing,
	// so the phase's allocation and CPU time include waiting them out.
	settle, cpu0 := time.Now(), cpuSeconds()
	if err := e.p.Visits.Table().WaitMaintenance(); err != nil {
		ph.fail(fmt.Sprintf("settle: %v", err))
	}
	ph.settleS = time.Since(settle).Seconds()
	settleCPU := cpuSeconds() - cpu0
	ph.settleCPUS = settleCPU / speedFactor(ph.refMs[measuredBlocks], ref.pass())
	runtime.ReadMemStats(&after)
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.gcCycles = after.NumGC - before.NumGC
	ph.gcPauseMs = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	ph.counters = readCounters().minus(startCounters)
	if probeShare != nil {
		ph.counters = ph.counters.minus(probeShare())
	}
	// Twice: the first cycle runs finalizers and frees what they held.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	ph.heapMB = float64(after.HeapAlloc) / (1 << 20)
	return ph
}

func (ph *phase) fail(msg string) {
	// The first few failures are worth reading; the rest are counted.
	if ph.failed++; ph.failed <= 5 {
		fmt.Fprintln(os.Stderr, "bench: FAILED", msg)
	}
}

// verify checks the kept answers against the oracle, after the clock has
// stopped.
func (ph *phase) verify(e *env, ops []op) {
	for _, k := range ph.kept {
		if err := e.oracle.verify(&ops[k.op], &k.res); err != nil {
			ph.fail(fmt.Sprintf("op %d: %v", k.op, err))
		}
	}
}

// endToEndValues are the metrics a user of the platform would see.
func (ph *phase) endToEndValues(w *workload, setupS float64) values {
	cpu := ph.settleCPUS
	for _, c := range ph.blockCPUS {
		cpu += c
	}
	return values{
		"setup_s":     setupS,
		"ops_s":       median(ph.blockOpsS),
		"p50_ms":      median(ph.latMs[w.primary]),
		"cpu_ms_op":   cpu / float64(ph.ops) * 1000,
		"alloc_kb_op": float64(ph.allocBytes) / float64(ph.ops) / 1024,
		"heap_mb":     ph.heapMB,
	}
}

// countValues are the per-layer metrics that need no tracing: deltas of the
// program's own families over the phase, and the harness's own tallies.
func (ph *phase) countValues(e *env, w *workload) values {
	c, n := ph.counters, float64(ph.ops)
	sortedRef := sortedCopy(ph.refMs)
	tail := sortedCopy(ph.latMs[w.primary])
	pct := tailPercentile(len(tail))
	var resident int64
	for _, r := range e.p.Visits.Table().Regions() {
		resident += r.Store().Stats().SegmentResidentBytes
	}
	v := values{
		"client.tail_ms":                 percentile(tail, pct),
		"client.tail_pct":                pct,
		"client.trending_p50_ms":         median(ph.latMs[opTrending]),
		"client.checkin_p50_ms":          median(ph.latMs[opPush]),
		"core.resp_kb_op":                ratio(float64(e.tr.respBytes), float64(e.tr.responses)) / 1024,
		"core.boot_s":                    e.setup.boot,
		"core.preload_s":                 e.setup.preload,
		"social.collect_s":               e.setup.collect,
		"query.coprocessor_ms_op":        c["coprocessor_seconds"] * 1000 / n,
		"query.merge_ms_op":              c["merge_seconds"] * 1000 / n,
		"query.merge_candidates_op":      c["merge_candidates"] / n,
		"exec.tasks_op":                  c["exec_tasks"] / n,
		"exec.task_wait_ms_op":           c["task_wait_seconds"] * 1000 / n,
		"kvstore.rows_scanned_op":        c["rows_scanned"] / n,
		"kvstore.rows_per_result":        ratio(c["rows_scanned"], float64(ph.resultsSeen)),
		"kvstore.blocks_decoded_op":      c["block_decodes"] / n,
		"kvstore.blocks_skipped_op":      c["blocks_skipped"] / n,
		"kvstore.block_cache_hit_ratio":  ratio(c["block_cache_hits"], c["block_cache_hits"]+c["block_cache_misses"]),
		"kvstore.segments_pruned_op":     c["segments_pruned"] / n,
		"kvstore.wal_group_commits_op":   c["wal_group_commits"] / n,
		"kvstore.flushes":                c["flushes"],
		"kvstore.compactions":            c["bg_compactions"] + c["major_compactions"],
		"kvstore.write_amp":              ratio(c["bytes_flushed"]+c["bytes_compacted"], c["bytes_ingested"]),
		"kvstore.write_stalls":           c["write_stalls"],
		"kvstore.segment_resident_mb":    float64(resident) / (1 << 20),
		"kvstore.settle_s":               ph.settleS,
		"matview.cache_hit_ratio":        ratio(c["cache_hits"], c["cache_hits"]+c["cache_misses"]),
		"matview.cache_invalidations_op": c["cache_invalidations"] / n,
		"matview.cache_stale_stores":     c["cache_stale_stores"],
		"matview.cache_mb":               float64(e.p.ResultCache.Bytes()) / (1 << 20),
		"pubsub.matches_op":              c["pubsub_matches"] / n,
		"pubsub.dropped":                 c["pubsub_dropped"],
		"cluster.sim_latency_ms":         median(ph.simMs),
		"runtime.gc_cycles":              float64(ph.gcCycles),
		"runtime.gc_pause_ms":            ph.gcPauseMs,
		"host.ref_ms":                    median(ph.refMs),
		"host.ref_spread":                ratio(percentile(sortedRef, 90), percentile(sortedRef, 10)),
		"host.raw_ops_s":                 median(ph.blockRawOpsS),
		"host.raw_p50_ms":                median(ph.rawLatMs[w.primary]),
		"host.raw_setup_s":               e.setup.total,
	}
	return v
}
