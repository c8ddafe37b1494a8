package query

import (
	"time"

	"modissense/internal/admit"
	"modissense/internal/exec"
	"modissense/internal/faultinject"
	"modissense/internal/kvstore"
)

// ReadPolicy configures how the personalized query reads each region: the
// per-region attempt budget with backoff, the latency-hedging thresholds,
// and whether a query may be answered without every region. An engine with
// no policy installed reads as ReadPolicy{MaxAttempts: 1}: one attempt on
// the primary, and a region that fails it fails the query.
type ReadPolicy struct {
	// MaxAttempts is each region's total attempt budget per query, hedges
	// included (< 1 means a single attempt: no retries, no hedging).
	MaxAttempts int
	// BaseBackoff is the delay before a region's first retry; each further
	// retry doubles it.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
	// JitterSeed drives the deterministic backoff jitter (see
	// exec.RetryPolicy.JitterSeed).
	JitterSeed int64
	// HedgeEnabled races a slow outstanding attempt with a replica read once
	// it exceeds the observed latency percentile below.
	HedgeEnabled bool
	// HedgeQuantile is the attempt-latency percentile after which the hedge
	// fires (0 defaults to 0.95).
	HedgeQuantile float64
	// HedgeMin/HedgeMax clamp the hedge threshold; HedgeMax also bounds the
	// wait before any latency has been observed.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// AllowDegraded answers with partial results when a region exhausts its
	// attempt budget — the query reports Degraded plus the missing region
	// ids instead of failing. Off, an exhausted region fails the query.
	AllowDegraded bool
}

// DefaultReadPolicy is the recommended fault-tolerant configuration: three
// attempts with a 2ms..50ms jittered backoff, p95 hedging clamped to
// [1ms, 100ms], and graceful degradation on.
func DefaultReadPolicy() ReadPolicy {
	return ReadPolicy{
		MaxAttempts:   3,
		BaseBackoff:   2 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
		HedgeEnabled:  true,
		HedgeQuantile: 0.95,
		HedgeMin:      time.Millisecond,
		HedgeMax:      100 * time.Millisecond,
		AllowDegraded: true,
	}
}

// SetReadPolicy installs (or, with nil, removes) the engine's read policy.
// Queries in flight keep the policy they started with.
func (e *Engine) SetReadPolicy(p *ReadPolicy) {
	cp := ReadPolicy{MaxAttempts: 1}
	if p != nil {
		cp = *p
	}
	e.readPolicy.Store(&cp)
}

// SetFaultInjector installs (or, with nil, removes) the deterministic fault
// injector intercepting every read attempt. Tests and TestScenarioReadFaults
// drive this.
func (e *Engine) SetFaultInjector(inj *faultinject.Injector) {
	e.injector.Store(inj)
}

// SetBreakers installs (or, with nil, removes) the per-node circuit
// breakers gating every read attempt.
func (e *Engine) SetBreakers(s *admit.BreakerSet) {
	e.breakers.Store(s)
}

// SetRetryBudget installs (or, with nil, removes) the engine-wide retry
// budget throttling retries+hedges across all concurrent queries.
func (e *Engine) SetRetryBudget(b *exec.RetryBudget) {
	e.retryBudget.Store(b)
}

// RetryBudget returns the installed engine-wide retry budget (nil when
// unthrottled) — ops surface for the overload benchmark and tests.
func (e *Engine) RetryBudget() *exec.RetryBudget {
	return e.retryBudget.Load()
}

// readOptions assembles the kvstore fan-out options from the policy, the
// engine-wide latency tracker, retry budget, injector and breakers.
func (e *Engine) readOptions(p *ReadPolicy) kvstore.ReadOptions {
	return kvstore.ReadOptions{
		Retry: exec.RetryPolicy{
			MaxAttempts: p.MaxAttempts,
			BaseBackoff: p.BaseBackoff,
			MaxBackoff:  p.MaxBackoff,
			JitterSeed:  p.JitterSeed,
			Budget:      e.retryBudget.Load(),
		},
		Hedge: exec.HedgePolicy{
			Enabled:  p.HedgeEnabled,
			Quantile: p.HedgeQuantile,
			Min:      p.HedgeMin,
			Max:      p.HedgeMax,
			Tracker:  e.hedgeTracker,
		},
		Injector: e.injector.Load(),
		Breakers: e.breakers.Load(),
	}
}
