package exec

import (
	"errors"
	"sync"
)

// ErrRetryBudgetExhausted marks a hedged read that wanted to retry but was
// denied by the process-wide retry budget. It always travels joined with
// ErrAttemptsExhausted so existing callers keep matching; testing for this
// sentinel distinguishes "throttled under overload" from "every attempt
// genuinely failed".
var ErrRetryBudgetExhausted = errors.New("exec: retry budget exhausted")

// RetryBudget caps retries+hedges as a fraction of primary attempts, after
// gRPC's retry throttling: every primary attempt earns Ratio tokens (capped
// at Burst), every retry or hedge spends one whole token. Under a fault
// storm the budget drains and the cluster stops amplifying its own load; in
// steady state the burst allowance keeps occasional retries free. All
// methods are safe for concurrent use and tolerate a nil receiver (a nil
// budget allows everything).
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64
	// attempts is the lifetime count of credited primary attempts.
	attempts int64
}

// NewRetryBudget builds a budget where retries+hedges may not exceed
// ratio × primary attempts plus a burst allowance. ratio < 0 is clamped to
// 0 (no earned retries); burst < 1 is clamped to 1 so the very first
// failure may still retry once.
func NewRetryBudget(ratio, burst float64) *RetryBudget {
	if ratio < 0 {
		ratio = 0
	}
	if burst < 1 {
		burst = 1
	}
	return &RetryBudget{ratio: ratio, burst: burst, tokens: burst}
}

// OnAttempt credits the budget for one primary attempt.
func (b *RetryBudget) OnAttempt() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.attempts++
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Spend withdraws one token for a retry or hedge, reporting whether the
// caller may proceed. A nil budget always allows.
func (b *RetryBudget) Spend() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		mBudgetDenied.Inc()
		return false
	}
	b.tokens--
	return true
}

// Attempts reports the lifetime primary-attempt count credited to the
// budget.
func (b *RetryBudget) Attempts() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempts
}
