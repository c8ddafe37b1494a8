package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"modissense/internal/obs"
)

func TestRunHedgedFirstAttemptWins(t *testing.T) {
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	v, meta, err := RunHedged(ctx, 1, 2, RetryPolicy{MaxAttempts: 3}, HedgePolicy{},
		func(ctx context.Context, attempt, replica int) (interface{}, error) {
			return fmt.Sprintf("a%d/r%d", attempt, replica), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if v != "a0/r0" || meta.Attempts != 1 || meta.Hedged || meta.Replica != 0 || meta.Attempt != 0 {
		t.Fatalf("v=%v meta=%+v", v, meta)
	}
	snap := st.Snapshot()
	if snap.Retries != 0 || snap.Hedges != 0 || snap.Cancels != 0 || snap.HedgeCancels != 0 {
		t.Fatalf("clean read mutated stats: %+v", snap)
	}
}

func TestRunHedgedRetriesAfterFailures(t *testing.T) {
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	boom := errors.New("boom")
	v, meta, err := RunHedged(ctx, 7, 2, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond}, HedgePolicy{},
		func(ctx context.Context, attempt, replica int) (interface{}, error) {
			if attempt < 2 {
				return nil, boom
			}
			return replica, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt indexes rotate replicas round-robin: attempt 2 on 3 copies
	// (primary + 2 replicas) reads replica 2.
	if v != 2 || meta.Attempts != 3 || meta.Replica != 2 || meta.Attempt != 2 {
		t.Fatalf("v=%v meta=%+v", v, meta)
	}
	if snap := st.Snapshot(); snap.Retries != 2 {
		t.Fatalf("retries = %d, want 2", snap.Retries)
	}
}

func TestRunHedgedExhaustion(t *testing.T) {
	boom := errors.New("boom")
	_, meta, err := RunHedged(context.Background(), 1, 0, RetryPolicy{MaxAttempts: 3}, HedgePolicy{},
		func(ctx context.Context, attempt, replica int) (interface{}, error) {
			return nil, boom
		})
	if !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("err = %v, want ErrAttemptsExhausted", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v should preserve the last attempt error", err)
	}
	if meta.Replica != -1 || meta.Attempt != -1 || meta.Attempts != 3 {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestRunHedgedHedgeWinsAndLoserCancelCountsOnce(t *testing.T) {
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	var loserSawCancel sync.WaitGroup
	loserSawCancel.Add(1)
	v, meta, err := RunHedged(ctx, 1, 1,
		RetryPolicy{MaxAttempts: 2},
		HedgePolicy{Enabled: true, Min: time.Millisecond, Max: 2 * time.Millisecond},
		func(ctx context.Context, attempt, replica int) (interface{}, error) {
			if attempt == 0 {
				// Primary stalls until first-success-wins cancels it.
				<-ctx.Done()
				loserSawCancel.Done()
				return nil, ctx.Err()
			}
			return "replica-answer", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if v != "replica-answer" || !meta.Hedged || meta.Replica != 1 || meta.Attempts != 2 {
		t.Fatalf("v=%v meta=%+v", v, meta)
	}
	loserSawCancel.Wait()
	// Give the loser goroutine a beat to finish its accounting after Done.
	deadline := time.Now().Add(time.Second)
	for st.Snapshot().HedgeCancels == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := st.Snapshot()
	if snap.HedgeCancels != 1 {
		t.Fatalf("hedge cancels = %d, want exactly 1", snap.HedgeCancels)
	}
	if snap.Cancels != 0 {
		t.Fatalf("task-level cancels = %d, want 0 (the query itself was never cancelled)", snap.Cancels)
	}
	if snap.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", snap.Hedges)
	}
}

func TestRunHedgedLoserCompletedAfterCancelNotCounted(t *testing.T) {
	// Regression for the double-count/no-count edge: an attempt that is
	// cancelled after it already completed must not be recorded as a
	// cancellation.
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	var slowDone sync.WaitGroup
	slowDone.Add(1)
	v, meta, err := RunHedged(ctx, 1, 1,
		RetryPolicy{MaxAttempts: 2},
		HedgePolicy{Enabled: true, Min: time.Millisecond, Max: 2 * time.Millisecond},
		func(ctx context.Context, attempt, replica int) (interface{}, error) {
			if attempt == 0 {
				defer slowDone.Done()
				// Slow but oblivious: completes successfully without ever
				// checking ctx, even though it loses the race.
				time.Sleep(20 * time.Millisecond)
				return "slow", nil
			}
			return "fast", nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if v != "fast" || !meta.Hedged {
		t.Fatalf("v=%v meta=%+v", v, meta)
	}
	slowDone.Wait()
	time.Sleep(5 * time.Millisecond) // let the loser goroutine finish accounting
	snap := st.Snapshot()
	if snap.HedgeCancels != 0 || snap.Cancels != 0 {
		t.Fatalf("completed-after-cancel loser was counted: %+v", snap)
	}
}

func TestRunHedgedCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, _, err := RunHedged(ctx, 1, 0, RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Hour}, HedgePolicy{},
		func(ctx context.Context, attempt, replica int) (interface{}, error) {
			return nil, errors.New("boom")
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled (no hour-long backoff wait)", err)
	}
}

// TestRunHedgedOneAttemptRunsInline: a one-attempt budget has nothing to
// race or retry, so fn runs on the caller's goroutine — no goroutine, result
// channel or cancel context, which is what a zero allocation count shows —
// while the budget, the tracker, panics, failures and caller cancellation
// are all reported as the raced path reports them.
func TestRunHedgedOneAttemptRunsInline(t *testing.T) {
	budget := NewRetryBudget(0.5, 10)
	tracker := NewLatencyTracker(8)
	hp := HedgePolicy{Enabled: true, Max: time.Nanosecond, Tracker: tracker} // would hedge at once, given the attempts
	answer := func(ctx context.Context, attempt, replica int) (int, error) { return 40 + attempt + replica, nil }
	for _, maxAttempts := range []int{0, 1} {
		rp := RetryPolicy{MaxAttempts: maxAttempts, Budget: budget}
		ctx := obs.WithQueryStats(context.Background(), &obs.QueryStats{})
		allocs := testing.AllocsPerRun(50, func() {
			v, meta, err := RunHedged(ctx, 1, 2, rp, hp, answer)
			want := ReadMeta{Attempts: 1}
			if v != 40 || meta != want || err != nil {
				t.Fatalf("MaxAttempts %d: v=%v meta=%+v err=%v", maxAttempts, v, meta, err)
			}
		})
		if allocs != 0 {
			t.Errorf("MaxAttempts %d: a one-attempt read allocated %v times, want 0", maxAttempts, allocs)
		}
	}
	if budget.Attempts() == 0 || int64(tracker.Len()) != min(budget.Attempts(), 8) {
		t.Errorf("budget credited %d attempts, tracker holds %d observations", budget.Attempts(), tracker.Len())
	}

	rp := RetryPolicy{MaxAttempts: 1}
	boom := errors.New("boom")
	_, meta, err := RunHedged(context.Background(), 1, 2, rp, hp, func(context.Context, int, int) (int, error) { return 0, boom })
	want := ReadMeta{Attempts: 1, Replica: -1, Attempt: -1}
	if !errors.Is(err, ErrAttemptsExhausted) || !errors.Is(err, boom) || meta != want {
		t.Errorf("failed attempt: err = %v meta = %+v, want attempts exhausted wrapping boom and %+v", err, meta, want)
	}
	_, _, err = RunHedged(context.Background(), 1, 2, rp, hp, func(context.Context, int, int) (int, error) { panic("kaboom") })
	if !errors.Is(err, ErrAttemptsExhausted) || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("panicking attempt: err = %v, want the panic recovered into an exhausted read", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, _, err = RunHedged(ctx, 1, 2, rp, hp, func(ctx context.Context, _, _ int) (int, error) {
		cancel()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrAttemptsExhausted) {
		t.Errorf("cancelled caller: err = %v, want the bare context error", err)
	}
}

func TestGatherCancelAccountingExactlyOnce(t *testing.T) {
	// One worker, three tasks: the first blocks until the query is
	// cancelled (counted once, mid-task), the rest are skipped before
	// running (counted once each, pre-run). Total cancels == tasks.
	st := &obs.QueryStats{}
	ctx, cancel := context.WithCancel(obs.WithQueryStats(context.Background(), st))
	p := NewPool(1)
	tasks := []Task{
		func(ctx context.Context) (interface{}, error) {
			cancel()
			<-ctx.Done()
			return nil, ctx.Err()
		},
		func(ctx context.Context) (interface{}, error) { return 1, nil },
		func(ctx context.Context) (interface{}, error) { return 2, nil },
	}
	res, err := p.Gather(ctx, tasks)
	if err == nil {
		t.Fatal("expected joined cancellation errors")
	}
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("task %d err = %v, want Canceled", i, r.Err)
		}
	}
	snap := st.Snapshot()
	if snap.Cancels != 3 {
		t.Fatalf("cancels = %d, want exactly 3 (one per task)", snap.Cancels)
	}
	if snap.Tasks != 3 {
		t.Fatalf("tasks = %d, want 3", snap.Tasks)
	}
}

func TestGatherTaskCompletingDespiteCancelNotCounted(t *testing.T) {
	// A task that finishes successfully even though the context was
	// cancelled mid-flight observed no cancellation — zero cancel records.
	st := &obs.QueryStats{}
	ctx, cancel := context.WithCancel(obs.WithQueryStats(context.Background(), st))
	p := NewPool(1)
	res, err := p.Gather(ctx, []Task{
		func(ctx context.Context) (interface{}, error) {
			cancel()
			return "done anyway", nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != "done anyway" {
		t.Fatalf("res = %+v", res[0])
	}
	if snap := st.Snapshot(); snap.Cancels != 0 {
		t.Fatalf("cancels = %d, want 0", snap.Cancels)
	}
}

func TestGatherTaskOwnErrorNotCountedAsCancel(t *testing.T) {
	// A task failing with its own (non-context) error under an alive
	// context is a failure, not a cancellation.
	st := &obs.QueryStats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	p := NewPool(1)
	_, err := p.Gather(ctx, []Task{
		func(ctx context.Context) (interface{}, error) { return nil, errors.New("boom") },
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if snap := st.Snapshot(); snap.Cancels != 0 {
		t.Fatalf("cancels = %d, want 0", snap.Cancels)
	}
}

func TestRetryPolicyBackoffDeterministicAndBounded(t *testing.T) {
	rp := RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 40 * time.Millisecond, JitterSeed: 3}
	for retry := 0; retry < 6; retry++ {
		a, b := rp.backoff(11, retry), rp.backoff(11, retry)
		if a != b {
			t.Fatalf("retry %d: backoff not deterministic (%v vs %v)", retry, a, b)
		}
		cap := 40 * time.Millisecond
		if a > cap {
			t.Fatalf("retry %d: backoff %v exceeds cap %v", retry, a, cap)
		}
		if a < 5*time.Millisecond {
			t.Fatalf("retry %d: backoff %v below half the base", retry, a)
		}
	}
	if d := rp.backoff(11, 2); d == rp.backoff(12, 2) {
		t.Logf("note: two salts collided at %v (possible but unlikely)", d)
	}
	if (RetryPolicy{}).backoff(1, 0) != 0 {
		t.Fatal("zero base must not delay")
	}
}

func TestLatencyTrackerQuantiles(t *testing.T) {
	tr := NewLatencyTracker(100)
	for i := 1; i <= 100; i++ {
		tr.Observe(time.Duration(i) * time.Millisecond)
	}
	if q := tr.Quantile(0.5); q < 45*time.Millisecond || q > 56*time.Millisecond {
		t.Fatalf("p50 = %v", q)
	}
	if q := tr.Quantile(0.95); q < 90*time.Millisecond {
		t.Fatalf("p95 = %v", q)
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	// Ring evicts oldest: 50 new fast samples drag the median down.
	for i := 0; i < 50; i++ {
		tr.Observe(time.Millisecond)
	}
	if q := tr.Quantile(0.25); q > 10*time.Millisecond {
		t.Fatalf("post-eviction p25 = %v", q)
	}
	var nilTr *LatencyTracker
	nilTr.Observe(time.Second)
	if nilTr.Quantile(0.5) != 0 || nilTr.Len() != 0 {
		t.Fatal("nil tracker must be inert")
	}
}

func TestHedgePolicyThreshold(t *testing.T) {
	tr := NewLatencyTracker(10)
	hp := HedgePolicy{Enabled: true, Min: 2 * time.Millisecond, Max: 100 * time.Millisecond, Tracker: tr}
	// Empty tracker: clamps apply (Min floor wins over zero quantile).
	if th := hp.threshold(); th != 2*time.Millisecond {
		t.Fatalf("empty-tracker threshold = %v, want Min", th)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(50 * time.Millisecond)
	}
	if th := hp.threshold(); th != 50*time.Millisecond {
		t.Fatalf("threshold = %v, want tracked 50ms", th)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(time.Second)
	}
	if th := hp.threshold(); th != 100*time.Millisecond {
		t.Fatalf("threshold = %v, want Max cap", th)
	}
	if th := (HedgePolicy{Enabled: true}).threshold(); th != defaultHedgeThreshold {
		t.Fatalf("unconfigured threshold = %v, want default", th)
	}
}
