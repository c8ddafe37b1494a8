// Package exec is the platform's scatter-gather execution engine: a bounded
// worker pool running context-aware tasks with deterministic result ordering,
// errors.Join-style error aggregation and per-query statistics.
//
// The personalized query path fans one coprocessor out across every region of
// the Visits table. The simulated cluster (internal/sim) models *when* that
// work would finish on the paper's testbed; this package makes the real
// execution actually parallel on the host, so wall-clock throughput under
// concurrent traffic scales with the hardware instead of contradicting the
// timing model.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"modissense/internal/obs"
)

// Task is one unit of scatter work. Tasks must be safe to run concurrently
// with each other; the value they return travels back to the caller in the
// task's original position.
type Task func(ctx context.Context) (interface{}, error)

// Result pairs one task's output with its error, in submission order.
type Result struct {
	Value interface{}
	Err   error
}

// Pool is a bounded worker pool. The bound applies across every concurrent
// Gather on the same pool, so a burst of simultaneous queries cannot spawn
// more than `workers` running tasks in total. The zero value is not usable;
// construct with NewPool.
type Pool struct {
	workers int
	// sem bounds globally-running tasks; each Gather additionally spawns at
	// most min(workers, len(tasks)) goroutines of its own.
	sem chan struct{}

	// qmu guards the waiter registry and the queue cap; waiting mirrors
	// len(waiters) for lock-free reads by the admission controller.
	qmu      sync.Mutex
	queueCap int
	seq      uint64
	waiters  map[*waiter]struct{}
	waiting  atomic.Int64

	// runTracker, when set, observes every completed task's run time — the
	// admission controller's input for predicting queue wait.
	runTracker atomic.Pointer[LatencyTracker]
}

// waiter is one task queued for a worker slot. shed is closed (exactly
// once, under qmu) when the bounded queue evicts it.
type waiter struct {
	pri  Priority
	seq  uint64
	shed chan struct{}
}

// NewPool creates a pool with the given worker bound; workers < 1 uses
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers,
		sem:     make(chan struct{}, workers),
		waiters: make(map[*waiter]struct{}),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// SetQueueCap bounds how many tasks may wait for a worker slot; beyond it
// the newest waiter of the lowest waiting priority is shed with ErrShed.
// n <= 0 restores the unbounded default. Safe to call concurrently with
// running Gathers (the new cap applies to subsequent enqueues).
func (p *Pool) SetQueueCap(n int) {
	p.qmu.Lock()
	p.queueCap = n
	p.qmu.Unlock()
}

// QueueLen reports how many tasks are currently waiting for a worker slot.
func (p *Pool) QueueLen() int { return int(p.waiting.Load()) }

// SetRunTracker installs a tracker observing every task's run time (nil
// detaches). The admission controller combines it with QueueLen to predict
// how long new work would wait.
func (p *Pool) SetRunTracker(t *LatencyTracker) { p.runTracker.Store(t) }

// acquire obtains a worker slot, queueing when none is free. It returns
// ErrShed when the bounded queue evicts the task, or the context error when
// ctx ends first. Queue-depth gauge accounting is exactly once per queued
// task on every exit path — including cancellation while still queued,
// which releases the queue slot immediately instead of blocking until a
// worker frees up.
func (p *Pool) acquire(ctx context.Context) error {
	select {
	case p.sem <- struct{}{}:
		mTaskWait.ObserveDuration(0)
		return nil
	default:
	}
	w, err := p.enqueue(PriorityFrom(ctx))
	if err != nil {
		return err
	}
	p.waiting.Add(1)
	mQueueDepth.Add(1)
	waitStart := time.Now()
	defer func() {
		mQueueDepth.Add(-1)
		p.waiting.Add(-1)
		mTaskWait.ObserveDuration(time.Since(waitStart))
	}()
	select {
	case p.sem <- struct{}{}:
		if !p.leave(w) {
			// A shed decision raced the slot grant and was already counted;
			// honor it and return the slot.
			<-p.sem
			return ErrShed
		}
		return nil
	case <-w.shed:
		return ErrShed
	case <-ctx.Done():
		if !p.leave(w) {
			// Shed and cancelled at once: the shed was already counted, so
			// report it rather than double-classifying the exit.
			return ErrShed
		}
		return ctx.Err()
	}
}

// enqueue registers a waiter, shedding the newest lowest-priority waiter
// (possibly the incoming one) when the queue is at capacity. The shed
// counter is bumped here, under qmu, exactly once per victim.
func (p *Pool) enqueue(pri Priority) (*waiter, error) {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	p.seq++
	w := &waiter{pri: pri, seq: p.seq, shed: make(chan struct{})}
	if p.queueCap <= 0 || len(p.waiters) < p.queueCap {
		p.waiters[w] = struct{}{}
		return w, nil
	}
	victim := w
	for cand := range p.waiters {
		if cand.pri < victim.pri || (cand.pri == victim.pri && cand.seq > victim.seq) {
			victim = cand
		}
	}
	countShed(victim.pri)
	if victim == w {
		return nil, ErrShed
	}
	delete(p.waiters, victim)
	close(victim.shed)
	p.waiters[w] = struct{}{}
	return w, nil
}

// leave deregisters a waiter, reporting false when a shedder already
// removed it (the shed then takes precedence for accounting).
func (p *Pool) leave(w *waiter) bool {
	p.qmu.Lock()
	defer p.qmu.Unlock()
	if _, ok := p.waiters[w]; !ok {
		return false
	}
	delete(p.waiters, w)
	return true
}

// countShed bumps the per-class shed counter.
func countShed(pri Priority) {
	if pri == PriorityBatch {
		mShedBatch.Inc()
	} else {
		mShedInteractive.Inc()
	}
}

// defaultPool is the process-wide pool used by Default.
var defaultPool atomic.Pointer[Pool]

// Default returns the shared process-wide pool, creating it on first use
// with GOMAXPROCS workers.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := NewPool(0)
	if defaultPool.CompareAndSwap(nil, p) {
		return p
	}
	return defaultPool.Load()
}

// SetDefaultWorkers replaces the shared pool with one bounded at n workers
// (n < 1 restores the GOMAXPROCS default). Gathers already in flight keep
// their old pool.
func SetDefaultWorkers(n int) {
	defaultPool.Store(NewPool(n))
}

// Stats is the per-query statistics collector. It lives in internal/obs as
// QueryStats so storage code can report into it without importing the
// execution engine; the aliases below keep the historical exec API intact.
type Stats = obs.QueryStats

// Snapshot is an immutable copy of Stats for reporting.
type Snapshot = obs.QuerySnapshot

// StatsFrom returns the context's Stats collector, or nil when none is
// attached (nil is safe to use with every Stats method).
func StatsFrom(ctx context.Context) *Stats {
	return obs.QueryStatsFrom(ctx)
}

// Gather runs every task on the pool and returns their results in task
// order. It never aborts on the first failure: every task either runs or —
// once ctx is cancelled — is marked with the context error, and the returned
// error joins every per-task error (nil when all succeeded). A panicking
// task is converted into an error instead of crashing the process.
func (p *Pool) Gather(ctx context.Context, tasks []Task) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	st := StatsFrom(ctx)
	n := len(tasks)
	res := make([]Result, n)
	if n == 0 {
		return res, nil
	}
	spawn := p.workers
	if spawn > n {
		spawn = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < spawn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counted := false
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !counted {
					st.AddGoroutine()
					counted = true
				}
				if err := p.acquire(ctx); err != nil {
					// Never got a slot: shed by the bounded queue or
					// cancelled while still queued. Either way the task is
					// accounted for exactly once right here.
					res[i].Err = err
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						st.AddCancel()
					}
					mTasks.Inc()
					st.AddTask()
					continue
				}
				mWorkersBusy.Add(1)
				runStart := time.Now()
				// Cancellation accounting is exactly once per task: either
				// the task was skipped here before running, or it ran and
				// returned the cancellation itself — never both, and a task
				// that completed despite a late cancel counts zero times.
				if err := ctx.Err(); err != nil {
					res[i].Err = err
					st.AddCancel()
				} else {
					res[i].Value, res[i].Err = runTask(ctx, tasks[i])
					if res[i].Err != nil && ctx.Err() != nil &&
						(errors.Is(res[i].Err, context.Canceled) || errors.Is(res[i].Err, context.DeadlineExceeded)) {
						st.AddCancel()
					}
					if tr := p.runTracker.Load(); tr != nil {
						tr.Observe(time.Since(runStart))
					}
				}
				mTaskRun.ObserveDuration(time.Since(runStart))
				mTasks.Inc()
				st.AddTask()
				mWorkersBusy.Add(-1)
				<-p.sem
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	st.AddWall(wall)
	mGathers.Inc()
	mGatherWall.ObserveDuration(wall)
	var errs []error
	for i := range res {
		if res[i].Err != nil {
			errs = append(errs, res[i].Err)
		}
	}
	return res, errors.Join(errs...)
}

// runTask executes one task, converting a panic into an error so a buggy
// callback degrades into a failed query instead of a crashed process.
func runTask(ctx context.Context, t Task) (v interface{}, err error) {
	defer recoverTask(&err)
	if t == nil {
		return nil, fmt.Errorf("exec: nil task")
	}
	return t(ctx)
}

// recoverTask, deferred, turns a panic of the surrounding call into *err.
func recoverTask(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("exec: task panic: %v", r)
	}
}
