package admit

import (
	"errors"
	"sync"
	"time"
)

// ErrBreakerOpen marks a read attempt rejected because the target node's
// circuit breaker is open. It is a routing signal, not a data fault: the
// hedged read path rotates the next attempt to another replica.
var ErrBreakerOpen = errors.New("admit: circuit breaker open")

// State is a circuit breaker's position in the closed → open → half-open
// cycle.
type State int

const (
	// StateClosed passes every attempt through (healthy node).
	StateClosed State = iota
	// StateOpen rejects every attempt until the probe delay elapses.
	StateOpen
	// StateHalfOpen lets exactly one probe attempt through at a time.
	StateHalfOpen
)

// String names the state for logs and tests.
func (s State) String() string {
	switch s {
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// Failures is the consecutive-failure count that trips the breaker
	// (< 1 defaults to 5).
	Failures int
	// OpenFor is the base open interval before a probe is allowed (<= 0
	// defaults to 500ms). Repeated trips back the interval off
	// exponentially, capped at 8× the base.
	OpenFor time.Duration
	// SlowAfter, when > 0, is the fail-slow threshold: the read path
	// records a failure for an attempt still running after this long, so
	// stalled nodes trip the breaker even when a hedge masks the stall.
	SlowAfter time.Duration
	// Seed drives the deterministic probe jitter so simulated fault runs
	// replay identically.
	Seed int64
	// Now is the clock; nil uses time.Now. Tests inject a fake.
	Now func() time.Time
}

// Breaker is one node's circuit breaker. All methods are safe for
// concurrent use and tolerate a nil receiver (a nil breaker is always
// closed).
type Breaker struct {
	cfg      BreakerConfig
	mu       sync.Mutex
	state    State
	fails    int
	trips    uint64
	openedAt time.Time
	probing  bool
	// onTrip, when non-nil, is invoked (outside mu) after every trip to
	// open — the failover layer's escalation signal. See BreakerSet.SetOnTrip.
	onTrip func()
}

// NewBreaker builds a breaker, applying config defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Failures < 1 {
		cfg.Failures = 5
	}
	if cfg.OpenFor <= 0 {
		cfg.OpenFor = 500 * time.Millisecond
	}
	return &Breaker{cfg: cfg}
}

// now reads the configured clock.
func (b *Breaker) now() time.Time {
	if b.cfg.Now != nil {
		return b.cfg.Now()
	}
	return time.Now()
}

// Allow reports whether an attempt may proceed. Open breakers reject until
// the deterministic probe delay elapses, then transition to half-open and
// admit exactly one probe at a time.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		return true
	case StateOpen:
		if b.now().Sub(b.openedAt) >= b.probeDelay() {
			b.state = StateHalfOpen
			b.probing = true
			mBreakerProbes.Inc()
			return true
		}
		mBreakerRejects.Inc()
		return false
	default: // StateHalfOpen
		if b.probing {
			mBreakerRejects.Inc()
			return false
		}
		b.probing = true
		mBreakerProbes.Inc()
		return true
	}
}

// RecordSuccess reports a completed healthy attempt. A half-open probe
// success closes the breaker; a success while open (an attempt launched
// before the trip) is ignored — only probe discipline re-closes.
func (b *Breaker) RecordSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails = 0
	case StateHalfOpen:
		b.state = StateClosed
		b.fails = 0
		b.probing = false
		mBreakerCloses.Inc()
		mBreakersOpen.Add(-1)
	}
}

// RecordFailure reports a failed (or fail-slow) attempt. Enough
// consecutive failures trip a closed breaker; any failure re-opens a
// half-open one.
func (b *Breaker) RecordFailure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	tripped := false
	switch b.state {
	case StateClosed:
		b.fails++
		if b.fails >= b.cfg.Failures {
			b.trip()
			tripped = true
		}
	case StateHalfOpen:
		b.trip()
		tripped = true
	}
	onTrip := b.onTrip
	b.mu.Unlock()
	// The trip callback runs outside the breaker lock so it may freely
	// call back into breaker or failover state.
	if tripped && onTrip != nil {
		onTrip()
	}
}

// setOnTrip installs the post-trip callback.
func (b *Breaker) setOnTrip(fn func()) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.onTrip = fn
	b.mu.Unlock()
}

// trip moves the breaker to open; callers hold b.mu.
func (b *Breaker) trip() {
	if b.state == StateClosed {
		mBreakersOpen.Add(1)
	}
	b.state = StateOpen
	b.openedAt = b.now()
	b.trips++
	b.fails = 0
	b.probing = false
	mBreakerTrips.Inc()
}

// probeDelay is the open interval before the next probe: OpenFor backed
// off exponentially with the trip count (capped at 8×) and scaled into
// [1.0, 1.5) by a pure hash of (seed, trips) — deterministic for a given
// seed, decorrelated across breakers. Callers hold b.mu.
func (b *Breaker) probeDelay() time.Duration {
	d := b.cfg.OpenFor
	shift := b.trips - 1
	if shift > 3 {
		shift = 3
	}
	d <<= shift
	h := splitmix64(uint64(b.cfg.Seed) ^ b.trips*0x9e3779b97f4a7c15)
	frac := 1.0 + 0.5*float64(h>>11)/float64(1<<53)
	return time.Duration(float64(d) * frac)
}

// SlowAfter exposes the fail-slow threshold for the read path's timer.
func (b *Breaker) SlowAfter() time.Duration {
	if b == nil {
		return 0
	}
	return b.cfg.SlowAfter
}

// BreakerSet lazily maintains one breaker per node, each jittered by a
// node-derived seed. A nil set hands out nil breakers, which allow
// everything.
type BreakerSet struct {
	cfg    BreakerConfig
	mu     sync.Mutex
	byNode map[int]*Breaker
	onTrip func(node int)
}

// NewBreakerSet builds an empty set sharing one config.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg, byNode: make(map[int]*Breaker)}
}

// For returns the node's breaker, creating it on first use.
func (s *BreakerSet) For(node int) *Breaker {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.byNode[node]; ok {
		return b
	}
	cfg := s.cfg
	cfg.Seed = int64(splitmix64(uint64(s.cfg.Seed) ^ uint64(node)*0xbf58476d1ce4e5b9))
	b := NewBreaker(cfg)
	if s.onTrip != nil {
		fn, node := s.onTrip, node
		b.onTrip = func() { fn(node) }
	}
	s.byNode[node] = b
	return b
}

// SetOnTrip registers fn to run — outside any breaker lock — every time a
// breaker in the set trips open, carrying the tripping node's id. The
// failover layer uses it to escalate the node to suspect; pass nil to
// clear. Applies to existing breakers and those created later.
func (s *BreakerSet) SetOnTrip(fn func(node int)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onTrip = fn
	for node, b := range s.byNode {
		if fn == nil {
			b.setOnTrip(nil)
			continue
		}
		fn, node := fn, node
		b.setOnTrip(func() { fn(node) })
	}
}

// splitmix64 is the SplitMix64 finalizer used for deterministic probe
// jitter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
