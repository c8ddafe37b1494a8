package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// QueryStats accumulates one query's execution statistics — the per-request
// companion of the registry's global series. It rides the context through
// the scatter-gather pool and the kvstore scans; all methods are safe for
// concurrent use and tolerate a nil receiver, so code paths that execute
// outside a query (background jobs, tests) need no special-casing.
type QueryStats struct {
	tasks        atomic.Int64
	goroutines   atomic.Int64
	rows         atomic.Int64
	bytes        atomic.Int64
	wallNanos    atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	replicaReads atomic.Int64
	cancels      atomic.Int64
	hedgeCancels atomic.Int64
	blocksDec    atomic.Int64
	blocksSkip   atomic.Int64
}

// QuerySnapshot is an immutable copy of QueryStats for reporting.
type QuerySnapshot struct {
	// Tasks is the number of tasks executed (or cancelled before running).
	Tasks int64 `json:"tasks"`
	// Goroutines counts the worker goroutines that ran at least one task —
	// the observed scatter parallelism.
	Goroutines int64 `json:"goroutines"`
	// RowsScanned is the number of store rows the tasks visited.
	RowsScanned int64 `json:"rows_scanned"`
	// BytesMerged is the (estimated) wire size of the partial aggregates the
	// gather stage combined.
	BytesMerged int64 `json:"bytes_merged"`
	// WallSeconds is the real elapsed time spent in Gather calls.
	WallSeconds float64 `json:"wall_seconds"`
	// Retries counts read attempts relaunched after a failed predecessor.
	Retries int64 `json:"retries"`
	// Hedges counts latency hedges fired (a second attempt racing a slow
	// outstanding one).
	Hedges int64 `json:"hedges"`
	// ReplicaReads counts attempts served by a region read replica instead
	// of the primary.
	ReplicaReads int64 `json:"replica_reads"`
	// Cancels counts tasks that observed the query's own cancellation —
	// exactly once per task, whether the task was skipped before running
	// or interrupted mid-flight.
	Cancels int64 `json:"cancels"`
	// HedgeCancels counts losing hedge attempts cancelled mid-task by
	// first-success-wins (attempts that completed before noticing the
	// cancel are not counted anywhere).
	HedgeCancels int64 `json:"hedge_cancels"`
	// BlocksDecoded counts segment blocks the query's scans decoded on a
	// block-cache miss; BlocksSkipped counts blocks pruned without
	// decoding (block min/max spans, segment pruning). Their
	// ratio shows how selective the query's ranges were.
	BlocksDecoded int64 `json:"blocks_decoded"`
	BlocksSkipped int64 `json:"blocks_skipped"`
}

// AddRows records n scanned rows.
func (s *QueryStats) AddRows(n int64) {
	if s != nil {
		s.rows.Add(n)
	}
}

// AddBytes records n merged bytes.
func (s *QueryStats) AddBytes(n int64) {
	if s != nil {
		s.bytes.Add(n)
	}
}

// AddTask records one executed (or cancelled) task.
func (s *QueryStats) AddTask() {
	if s != nil {
		s.tasks.Add(1)
	}
}

// AddGoroutine records one worker goroutine that served this query.
func (s *QueryStats) AddGoroutine() {
	if s != nil {
		s.goroutines.Add(1)
	}
}

// AddWall records elapsed gather wall time.
func (s *QueryStats) AddWall(d time.Duration) {
	if s != nil {
		s.wallNanos.Add(int64(d))
	}
}

// AddRetry records one read attempt relaunched after a failure.
func (s *QueryStats) AddRetry() {
	if s != nil {
		s.retries.Add(1)
	}
}

// AddHedge records one latency hedge fired.
func (s *QueryStats) AddHedge() {
	if s != nil {
		s.hedges.Add(1)
	}
}

// AddReplicaRead records one attempt served by a read replica.
func (s *QueryStats) AddReplicaRead() {
	if s != nil {
		s.replicaReads.Add(1)
	}
}

// AddCancel records one task that observed the query's cancellation. Call
// it exactly once per cancelled task (see QuerySnapshot.Cancels).
func (s *QueryStats) AddCancel() {
	if s != nil {
		s.cancels.Add(1)
	}
}

// AddHedgeCancel records one losing hedge attempt cancelled mid-task by
// first-success-wins.
func (s *QueryStats) AddHedgeCancel() {
	if s != nil {
		s.hedgeCancels.Add(1)
	}
}

// AddBlocksDecoded records n segment blocks decoded on a cache miss.
func (s *QueryStats) AddBlocksDecoded(n int64) {
	if s != nil {
		s.blocksDec.Add(n)
	}
}

// AddBlocksSkipped records n segment blocks pruned without decoding.
func (s *QueryStats) AddBlocksSkipped(n int64) {
	if s != nil {
		s.blocksSkip.Add(n)
	}
}

// Snapshot returns a copy of the counters. Safe on a nil receiver.
func (s *QueryStats) Snapshot() QuerySnapshot {
	if s == nil {
		return QuerySnapshot{}
	}
	return QuerySnapshot{
		Tasks:         s.tasks.Load(),
		Goroutines:    s.goroutines.Load(),
		RowsScanned:   s.rows.Load(),
		BytesMerged:   s.bytes.Load(),
		WallSeconds:   float64(s.wallNanos.Load()) / 1e9,
		Retries:       s.retries.Load(),
		Hedges:        s.hedges.Load(),
		ReplicaReads:  s.replicaReads.Load(),
		Cancels:       s.cancels.Load(),
		HedgeCancels:  s.hedgeCancels.Load(),
		BlocksDecoded: s.blocksDec.Load(),
		BlocksSkipped: s.blocksSkip.Load(),
	}
}

type queryStatsKey struct{}

// WithQueryStats attaches a QueryStats collector to the context; the
// scatter-gather pool and cancellation-aware scans report into it.
func WithQueryStats(ctx context.Context, s *QueryStats) context.Context {
	return context.WithValue(ctx, queryStatsKey{}, s)
}

// QueryStatsFrom returns the context's QueryStats collector, or nil when
// none is attached (nil is safe to use with every QueryStats method).
func QueryStatsFrom(ctx context.Context) *QueryStats {
	s, _ := ctx.Value(queryStatsKey{}).(*QueryStats)
	return s
}
