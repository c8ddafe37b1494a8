package kvstore

import (
	"context"
	"errors"
	"time"

	"modissense/internal/admit"
	"modissense/internal/exec"
	"modissense/internal/faultinject"
	"modissense/internal/obs"
)

// ReadOptions configures how ExecRegions reads each region: the attempt
// budget and backoff, the hedge policy, and the optional fault injector and
// circuit breakers every attempt passes. The zero value means one attempt,
// on the primary, with nothing intercepting it.
type ReadOptions struct {
	// Retry budgets the attempts of each region's read.
	Retry exec.RetryPolicy
	// Hedge decides when an outstanding attempt gets raced by a replica.
	Hedge exec.HedgePolicy
	// Injector, when non-nil, intercepts every read attempt with the
	// deterministic fault harness (tests and TestScenarioReadFaults).
	Injector *faultinject.Injector
	// Breakers, when non-nil, gates every attempt on the target node's
	// circuit breaker: attempts to open nodes fail fast with
	// admit.ErrBreakerOpen (so the hedged rotation moves to another
	// replica), and each attempt's outcome feeds the breaker back.
	Breakers *admit.BreakerSet
}

// RegionResult is one region's outcome of an ExecRegions call.
type RegionResult[T any] struct {
	// Region is the frozen view the call captured for this region.
	Region *Region
	// Value is the winning attempt's result (the zero T when Err is set).
	Value T
	// Err is why the region has no value: the attempt budget ran out (it
	// matches exec.ErrAttemptsExhausted and the last attempt's error), the
	// scatter pool shed the task, or the caller's context ended.
	Err error
	// Meta describes the read: how many attempts it launched, whether a
	// hedge fired, and which attempt and replica won (-1 when none did).
	Meta exec.ReadMeta
	// ServedNode is the simulated node that served the winning attempt —
	// a replica's node when a hedge or retry won, otherwise the primary's.
	ServedNode int
}

// ExecRegions runs fn region-locally on every region of the table — the
// coprocessor call of the personalized query path — and returns one result
// per region in key order, whatever order they completed in. Regions are
// frozen first, so a concurrent SplitRegion cannot swap a store out from
// under a running fn; the frozen views fan out on the shared scatter-gather
// pool (exec.Default), and each region's read goes through exec.RunHedged
// under ro: failed attempts are retried with jittered backoff, slow ones
// hedged to a read replica, and the first success wins (losers are
// cancelled through the ctx fn receives, which fn must honor). The zero ro
// runs fn once per region on the pool worker's own goroutine.
//
// There is no first-error abort: every region's outcome is reported in its
// RegionResult, leaving the served/missing split to the caller. When ctx
// carries an exec.Stats the fan-out's parallelism, retries and hedges are
// recorded there; when it carries a span, each attempt is a child span.
func ExecRegions[T any](ctx context.Context, t *Table, ro ReadOptions, fn func(context.Context, *Region) (T, error)) []RegionResult[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	regions := t.frozenRegions()
	out := make([]RegionResult[T], len(regions))
	tasks := make([]exec.Task, len(regions))
	for i, r := range regions {
		res := &out[i]
		res.Region, res.ServedNode = r, r.NodeID
		tasks[i] = func(tctx context.Context) (interface{}, error) {
			v, meta, err := exec.RunHedged(tctx, int64(r.ID), r.Replicas(), ro.Retry, ro.Hedge,
				func(actx context.Context, attempt, replica int) (T, error) {
					return runReadAttempt(actx, t, r, attempt, replica, &ro, fn)
				})
			res.Value, res.Meta = v, meta
			if meta.Replica > 0 {
				res.ServedNode = r.ReadView(meta.Replica).NodeID
			}
			return nil, err
		}
	}
	// The pool reports tasks it never ran (shed, or cancelled while queued)
	// in its own results, so every region's error is taken from there.
	results, _ := exec.Default().Gather(ctx, tasks)
	for i := range out {
		out[i].Err = results[i].Err
	}
	return out
}

// runReadAttempt executes one attempt of one region's read: pick the copy
// to read, consult its node's circuit breaker, pass the fault-injection
// interception point, run fn, and record the attempt as a span with its
// outcome. fn's ctx carries that span, so fn annotates it rather than
// opening one of its own.
//
// Breaker feedback is deliberately conservative: a clean completion records
// a success, a non-cancellation error records a failure, and a fail-slow
// timer records a failure when the attempt is still running after the
// breaker's SlowAfter threshold — so a stalled node trips its breaker even
// when a winning hedge later cancels the stalled attempt (which would
// otherwise end as a neutral context.Canceled).
func runReadAttempt[T any](ctx context.Context, t *Table, r *Region, attempt, replica int, ro *ReadOptions, fn func(context.Context, *Region) (T, error)) (T, error) {
	var none T
	// The frozen region is already a view of the primary; only replica
	// reads need a view of their own.
	view := r
	if replica > 0 {
		view = r.ReadView(replica)
	}
	br := ro.Breakers.For(view.NodeID)
	mReadAttempts.Inc()
	if replica > 0 {
		mReplicaReads.Inc()
		obs.QueryStatsFrom(ctx).AddReplicaRead()
	}
	span := obs.SpanFromContext(ctx).Child("attempt")
	span.SetAttrInt("region", int64(r.ID))
	span.SetAttrInt("attempt", int64(attempt))
	span.SetAttrInt("replica", int64(replica))
	span.SetAttrInt("node", int64(view.NodeID))
	defer span.End()
	if span != nil {
		ctx = obs.ContextWithSpan(ctx, span)
	}

	if !br.Allow() {
		span.SetAttr("outcome", "breaker-open")
		return none, admit.ErrBreakerOpen
	}
	if slowAfter := br.SlowAfter(); slowAfter > 0 {
		slow := time.AfterFunc(slowAfter, br.RecordFailure)
		defer slow.Stop()
	}

	d := ro.Injector.Decide(faultinject.Op{Node: view.NodeID, Region: r.ID, Replica: replica})
	if errors.Is(d.Err, faultinject.ErrInjectedCrash) {
		span.SetAttr("outcome", "injected-crash")
		br.RecordFailure()
		t.noteReadFailure(view.NodeID)
		return none, d.Err
	}
	if d.Stall > 0 {
		span.SetAttrInt("stall_ms", d.Stall.Milliseconds())
		if err := faultinject.Sleep(ctx, d.Stall); err != nil {
			span.SetAttr("outcome", "canceled")
			return none, err
		}
	}
	start := time.Now()
	v, err := fn(ctx, view)
	if err == nil && d.SlowFactor > 1 {
		// Stretch the measured service time to the injected multiplier.
		extra := time.Duration(float64(time.Since(start)) * (d.SlowFactor - 1))
		span.SetAttrInt("slow_extra_us", extra.Microseconds())
		if serr := faultinject.Sleep(ctx, extra); serr != nil {
			span.SetAttr("outcome", "canceled")
			return none, serr
		}
	}
	if err == nil && d.Err != nil {
		// ScanError decisions fail the attempt after the work ran.
		err = d.Err
	}
	switch {
	case err == nil:
		span.SetAttr("outcome", "ok")
		br.RecordSuccess()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancellation is neutral for the breaker: losing a hedge race or
		// the caller going away says nothing about the node (the fail-slow
		// timer above already charged genuinely stalled attempts).
		span.SetAttr("outcome", "canceled")
	default:
		span.SetAttr("outcome", "error")
		br.RecordFailure()
		t.noteReadFailure(view.NodeID)
	}
	return v, err
}
