package exec

import "modissense/internal/obs"

// Pool-level series in the shared registry. Handles are resolved once at
// package init; the scheduling loop touches only atomics.
var (
	mQueueDepth = obs.Default().Gauge("exec_queue_depth", "Tasks waiting for a worker slot.")
	mTasks      = obs.Default().Counter("exec_tasks_total", "Tasks executed (or cancelled before running).")
	mTaskWait   = obs.Default().Histogram("exec_task_wait_seconds", "Time a task waited for a worker slot.", obs.LatencyBuckets())

	mShedInteractive = obs.Default().Counter("exec_queue_shed_total",
		"Tasks shed by the bounded queue, by priority class.", obs.L("class", "interactive"))
	mShedBatch = obs.Default().Counter("exec_queue_shed_total",
		"Tasks shed by the bounded queue, by priority class.", obs.L("class", "batch"))
	mBudgetDenied = obs.Default().Counter("exec_retry_budget_denied_total",
		"Retries and hedges refused because the global retry budget was exhausted.")

	mRetries = obs.Default().Counter("exec_read_retries_total",
		"Hedged-read attempts relaunched after a failed predecessor.")
	mHedges = obs.Default().Counter("exec_read_hedges_total",
		"Latency hedges fired (second attempt racing a slow outstanding one).")
	mHedgeWins = obs.Default().Counter("exec_read_hedge_wins_total",
		"Hedged reads won by an attempt other than the first.")
	mHedgeLoserCanceled = obs.Default().Counter("exec_read_losers_canceled_total",
		"Losing attempts cancelled mid-task by first-success-wins.")
	mHedgeLoserCompleted = obs.Default().Counter("exec_read_losers_completed_total",
		"Losing attempts that completed before observing the cancel (not counted as cancellations).")
)
