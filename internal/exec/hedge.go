package exec

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modissense/internal/obs"
)

// ErrAttemptsExhausted marks a hedged read that failed every attempt in its
// budget. Callers test it with errors.Is to distinguish "this region is
// unavailable" (degradable) from caller cancellation (fatal).
var ErrAttemptsExhausted = errors.New("exec: read attempts exhausted")

// RetryPolicy budgets the attempts of one hedged read and shapes the
// backoff between consecutive failures.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget, hedges included (< 1 means
	// a single attempt, i.e. no retries and no hedging headroom).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (exponential backoff). Zero retries immediately.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
	// JitterSeed drives the deterministic backoff jitter: the delay is
	// scaled by a hash of (seed, salt, retry) into [0.5, 1.0), so
	// concurrent regions never retry in lockstep yet every run replays the
	// same schedule.
	JitterSeed int64
	// Budget, when non-nil, throttles retries and hedges globally: each
	// primary attempt earns fractional tokens, each retry/hedge spends one.
	// A denied hedge is skipped silently; a denied retry fails the read with
	// ErrRetryBudgetExhausted joined into the exhaustion error.
	Budget *RetryBudget
}

// backoff returns the jittered delay before the retry-th retry (0-based)
// for the given salt (the caller's region identity).
func (rp RetryPolicy) backoff(salt int64, retry int) time.Duration {
	if rp.BaseBackoff <= 0 {
		return 0
	}
	shift := retry
	if shift > 16 {
		shift = 16
	}
	d := rp.BaseBackoff << shift
	if rp.MaxBackoff > 0 && d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	h := hedgeHash(uint64(rp.JitterSeed) ^ uint64(salt)*0x9e3779b97f4a7c15 ^ uint64(retry))
	frac := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// HedgePolicy decides when a still-outstanding attempt gets a concurrent
// hedge sent to another replica.
type HedgePolicy struct {
	// Enabled turns hedging on; off, RunHedged only retries after failures.
	Enabled bool
	// Quantile is the latency percentile of recent attempts after which the
	// hedge fires (0 defaults to 0.95): if the attempt has been outstanding
	// longer than that percentile, a second attempt races it.
	Quantile float64
	// Min/Max clamp the hedge threshold — Min keeps warmup from hedging on
	// microsecond noise, Max bounds the wait when the tracker is empty or
	// polluted by a fault. Max also serves as the threshold before any
	// latency has been observed (0 falls back to a 25ms default).
	Min time.Duration
	Max time.Duration
	// Tracker supplies the observed attempt-latency distribution; nil
	// disables the adaptive part and uses the clamps alone.
	Tracker *LatencyTracker
}

// defaultHedgeThreshold bounds the hedge wait when neither the tracker nor
// the clamps provide one.
const defaultHedgeThreshold = 25 * time.Millisecond

// threshold computes the current hedge trigger delay.
func (hp HedgePolicy) threshold() time.Duration {
	q := hp.Quantile
	if q <= 0 || q >= 1 {
		q = 0.95
	}
	d := hp.Tracker.Quantile(q)
	if d < hp.Min {
		d = hp.Min
	}
	if hp.Max > 0 && d > hp.Max {
		d = hp.Max
	}
	if d <= 0 {
		if hp.Max > 0 {
			return hp.Max
		}
		return defaultHedgeThreshold
	}
	return d
}

// LatencyTracker keeps a bounded ring of recent attempt latencies and
// serves quantiles of it — the adaptive input of the hedge threshold. All
// methods are safe for concurrent use and tolerate a nil receiver.
type LatencyTracker struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	count   int
}

// NewLatencyTracker builds a tracker over the last `capacity` observations
// (values < 1 default to 256).
func NewLatencyTracker(capacity int) *LatencyTracker {
	if capacity < 1 {
		capacity = 256
	}
	return &LatencyTracker{samples: make([]time.Duration, capacity)}
}

// Observe records one attempt latency.
func (t *LatencyTracker) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[t.next] = d
	t.next = (t.next + 1) % len(t.samples)
	if t.count < len(t.samples) {
		t.count++
	}
	t.mu.Unlock()
}

// Len returns the number of retained observations.
func (t *LatencyTracker) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Quantile returns the q-th latency quantile of the retained observations
// (0 when empty or when the receiver is nil).
func (t *LatencyTracker) Quantile(q float64) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	tmp := append([]time.Duration(nil), t.samples[:t.count]...)
	t.mu.Unlock()
	if len(tmp) == 0 {
		return 0
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(q * float64(len(tmp)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(tmp) {
		idx = len(tmp) - 1
	}
	return tmp[idx]
}

// ReadMeta describes how a hedged read concluded: how many attempts were
// launched, whether a hedge fired, and which attempt/replica produced the
// returned value (Replica is -1 when every attempt failed).
type ReadMeta struct {
	// Attempts is the number of attempts launched (1 = clean first try).
	Attempts int
	// Hedged reports whether a latency hedge fired during the read.
	Hedged bool
	// Replica is the replica index that served the winning attempt
	// (0 = primary, -1 = no attempt succeeded).
	Replica int
	// Attempt is the 0-based index of the winning attempt (-1 on failure).
	Attempt int
}

// attemptResult is one attempt's outcome inside RunHedged.
type attemptResult[T any] struct {
	v       T
	err     error
	idx     int
	replica int
}

// runAttempt executes one attempt, converting a panic into an error exactly
// as runTask does for pool tasks.
func runAttempt[T any](ctx context.Context, fn func(context.Context, int, int) (T, error), idx, replica int) (v T, err error) {
	defer recoverTask(&err)
	return fn(ctx, idx, replica)
}

// RunHedged executes fn with retries, exponential backoff and latency
// hedging until one attempt succeeds or the budget is spent — the
// tail-tolerant read primitive of the scatter path. fn receives the 0-based
// attempt index and the replica index it should read (0 = primary), and
// must honor its ctx: losing hedge attempts are cancelled through it.
//
// The first attempt goes to the primary (replica 0); subsequent attempts
// rotate round-robin across the replicas+1 copies. While an attempt is
// outstanding and no hedge has fired yet, a hedge launches after the
// policy's latency threshold; the first success wins and every other
// outstanding attempt is cancelled through its context. After a failure
// with no attempt outstanding, the next attempt starts after the retry
// policy's jittered backoff (salt varies the jitter per caller/region).
//
// A one-attempt budget has nothing to race or retry, so it runs fn on the
// caller's goroutine: no goroutine, channel or cancel context is created,
// and the outcome is reported exactly as the raced path would report it.
//
// Cancellation accounting is exactly-once per attempt: a losing attempt
// that observes the cancellation is recorded as a hedge-loser cancel in the
// context's QueryStats; a losing attempt that completed before noticing is not
// recorded at all (it was never cancelled mid-task); cancellation of the
// caller's own ctx is left to the caller's task-level accounting.
//
// On exhaustion the returned error matches both ErrAttemptsExhausted and
// the last attempt error under errors.Is.
func RunHedged[T any](ctx context.Context, salt int64, replicas int, rp RetryPolicy, hp HedgePolicy, fn func(ctx context.Context, attempt, replica int) (T, error)) (T, ReadMeta, error) {
	var zero T
	meta := ReadMeta{Replica: -1, Attempt: -1}
	if fn == nil {
		return zero, meta, fmt.Errorf("exec: nil attempt func")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	maxAttempts := rp.MaxAttempts
	if maxAttempts <= 1 {
		rp.Budget.OnAttempt()
		meta.Attempts = 1
		start := time.Now()
		v, err := runAttempt(ctx, fn, 0, 0)
		if err == nil {
			hp.Tracker.Observe(time.Since(start))
			meta.Replica, meta.Attempt = 0, 0
			return v, meta, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return zero, meta, cerr
		}
		return zero, meta, errors.Join(ErrAttemptsExhausted, err)
	}
	st := obs.QueryStatsFrom(ctx)
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	resCh := make(chan attemptResult[T], maxAttempts)
	// winner is the 1-based index of the first successful attempt; the CAS
	// is what makes each loser classify its own outcome exactly once.
	var winner atomic.Int32
	launch := func(idx int) {
		replica := 0
		if replicas > 0 {
			replica = idx % (replicas + 1)
		}
		go func() {
			start := time.Now()
			v, err := runAttempt(actx, fn, idx, replica)
			d := time.Since(start)
			switch {
			case err == nil:
				hp.Tracker.Observe(d)
				if !winner.CompareAndSwap(0, int32(idx)+1) {
					// Completed after another attempt already won: the
					// cancel arrived too late to interrupt anything, so it
					// is not a cancellation — the no-count side of the
					// exactly-once contract.
					mHedgeLoserCompleted.Inc()
				}
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				if winner.Load() != 0 {
					// Cancelled mid-task by first-success-wins: count it
					// here, exactly once, as a hedge-loser cancel.
					st.AddHedgeCancel()
					mHedgeLoserCanceled.Inc()
				}
			}
			resCh <- attemptResult[T]{v: v, err: err, idx: idx, replica: replica}
		}()
	}

	launch(0)
	rp.Budget.OnAttempt()
	launched, outstanding := 1, 1
	hedged := false
	budgetDenied := false
	var lastErr error
	for {
		var hedgeCh <-chan time.Time
		var hedgeTimer *time.Timer
		if hp.Enabled && !hedged && !budgetDenied && outstanding > 0 && launched < maxAttempts {
			hedgeTimer = time.NewTimer(hp.threshold())
			hedgeCh = hedgeTimer.C
		}
		select {
		case <-hedgeCh:
			if !rp.Budget.Spend() {
				// The global retry budget is drained: suppress hedging for
				// the rest of this read instead of amplifying overload.
				budgetDenied = true
				continue
			}
			hedged = true
			st.AddHedge()
			mHedges.Inc()
			launch(launched)
			launched++
			outstanding++
			continue
		case r := <-resCh:
			if hedgeTimer != nil {
				hedgeTimer.Stop()
			}
			outstanding--
			if r.err == nil {
				meta.Attempts = launched
				meta.Hedged = hedged
				meta.Replica = r.replica
				meta.Attempt = r.idx
				if r.idx > 0 {
					mHedgeWins.Inc()
				}
				return r.v, meta, nil
			}
			lastErr = r.err
			if err := ctx.Err(); err != nil {
				// The caller's context is done: stop retrying and surface
				// the cancellation itself.
				meta.Attempts = launched
				meta.Hedged = hedged
				return zero, meta, err
			}
			if outstanding > 0 {
				// The raced hedge is still running; wait for it.
				continue
			}
			if launched >= maxAttempts {
				meta.Attempts = launched
				meta.Hedged = hedged
				return zero, meta, errors.Join(ErrAttemptsExhausted, lastErr)
			}
			if !rp.Budget.Spend() {
				// Out of retry budget: give up now rather than queue a
				// backoff for an attempt that may not be afforded.
				meta.Attempts = launched
				meta.Hedged = hedged
				return zero, meta, errors.Join(ErrAttemptsExhausted, ErrRetryBudgetExhausted, lastErr)
			}
			retry := launched - 1 // 0-based retry index
			if d := rp.backoff(salt, retry); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
					meta.Attempts = launched
					meta.Hedged = hedged
					return zero, meta, ctx.Err()
				case <-t.C:
				}
			}
			st.AddRetry()
			mRetries.Inc()
			launch(launched)
			launched++
			outstanding++
		}
	}
}

// hedgeHash is the SplitMix64 finalizer used for deterministic backoff
// jitter.
func hedgeHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
