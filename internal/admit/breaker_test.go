package admit

import (
	"sync"
	"testing"
	"time"
)

// step drives one breaker event and states the expected observable state.
type step struct {
	// op: "fail", "ok", "allow" (expect admitted), "deny" (expect
	// rejected), "advance" (move the clock by d).
	op   string
	d    time.Duration
	want State
}

// stateOf reads the breaker's state (a probe-delay expiry shows as open
// until the next Allow observes it).
func stateOf(b *Breaker) State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func TestBreakerStateMachine(t *testing.T) {
	cases := []struct {
		name  string
		steps []step
	}{
		{"stays closed below threshold", []step{
			{op: "fail", want: StateClosed},
			{op: "fail", want: StateClosed},
			{op: "ok", want: StateClosed}, // success resets the streak
			{op: "fail", want: StateClosed},
			{op: "fail", want: StateClosed},
			{op: "fail", want: StateOpen}, // 3 consecutive
		}},
		{"open rejects until probe delay", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail", want: StateOpen},
			{op: "deny", want: StateOpen},
			{op: "advance", d: 10 * time.Second},
			{op: "allow", want: StateHalfOpen}, // the probe
			{op: "deny", want: StateHalfOpen},  // only one probe at a time
		}},
		{"probe success closes", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail", want: StateOpen},
			{op: "advance", d: 10 * time.Second},
			{op: "allow", want: StateHalfOpen},
			{op: "ok", want: StateClosed},
			{op: "allow", want: StateClosed},
		}},
		{"probe failure reopens", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail", want: StateOpen},
			{op: "advance", d: 10 * time.Second},
			{op: "allow", want: StateHalfOpen},
			{op: "fail", want: StateOpen},
			{op: "deny", want: StateOpen}, // re-opened: rejecting again
		}},
		{"stale success while open is ignored", []step{
			{op: "fail"}, {op: "fail"}, {op: "fail", want: StateOpen},
			{op: "ok", want: StateOpen},
			{op: "deny", want: StateOpen},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			b := NewBreaker(BreakerConfig{Failures: 3, OpenFor: time.Second, Seed: 7, Now: clk.fn()})
			for i, s := range tc.steps {
				switch s.op {
				case "fail":
					b.RecordFailure()
				case "ok":
					b.RecordSuccess()
				case "allow":
					if !b.Allow() {
						t.Fatalf("step %d: Allow() = false, want true", i)
					}
				case "deny":
					if b.Allow() {
						t.Fatalf("step %d: Allow() = true, want false", i)
					}
				case "advance":
					clk.advance(s.d)
					continue
				}
				if got := stateOf(b); got != s.want {
					t.Fatalf("step %d (%s): state = %v, want %v", i, s.op, got, s.want)
				}
			}
		})
	}
}

// TestBreakerProbeTimingDeterministic pins the probe schedule: the delay is
// a pure function of (seed, trip count), within [OpenFor, 1.5×OpenFor) for
// the first trip, backing off exponentially (capped 8×) on later trips —
// and two breakers with the same seed replay the identical schedule.
func TestBreakerProbeTimingDeterministic(t *testing.T) {
	base := 100 * time.Millisecond
	probeAt := func(seed int64, failures int) time.Duration {
		clk := newFakeClock()
		b := NewBreaker(BreakerConfig{Failures: 1, OpenFor: base, Seed: seed, Now: clk.fn()})
		for i := 0; i < failures; i++ { // trip (re-tripping via probe failures)
			b.RecordFailure()
			if i < failures-1 {
				clk.advance(time.Hour) // expire, probe, fail again
				if !b.Allow() {
					t.Fatal("probe not admitted after a full hour")
				}
			}
		}
		// Binary-search-free scan: find the first millisecond the probe fires.
		for d := time.Duration(0); d < 2*time.Hour; d += time.Millisecond {
			clk.advance(time.Millisecond)
			if b.Allow() {
				return d + time.Millisecond
			}
		}
		t.Fatal("probe never admitted")
		return 0
	}
	first := probeAt(42, 1)
	if first < base || first >= base+base/2+time.Millisecond {
		t.Fatalf("first probe delay %v outside [%v, %v)", first, base, base+base/2)
	}
	if again := probeAt(42, 1); again != first {
		t.Fatalf("same seed, different schedule: %v vs %v", again, first)
	}
	if other := probeAt(43, 1); other == first {
		t.Fatalf("different seeds produced the identical delay %v (jitter inert)", first)
	}
	third := probeAt(42, 3)
	if third < 4*base {
		t.Fatalf("third trip delay %v did not back off (want >= %v)", third, 4*base)
	}
	if capped := probeAt(42, 9); capped >= 8*base+8*base/2+time.Millisecond {
		t.Fatalf("ninth trip delay %v exceeds the 8x cap window", capped)
	}
}

// TestBreakerConcurrentTrips hammers one breaker from many goroutines; run
// under -race this checks the lock discipline, and the trip counter must
// reflect a consistent state machine (trips ≥ 1, state open, no panic).
func TestBreakerConcurrentTrips(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 3, OpenFor: time.Hour, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Allow()
				b.RecordFailure()
				if i%7 == 0 {
					b.RecordSuccess()
				}
			}
		}()
	}
	wg.Wait()
	if stateOf(b) != StateOpen {
		t.Fatalf("state = %v, want open after a failure storm", stateOf(b))
	}
	b.mu.Lock()
	trips := b.trips
	b.mu.Unlock()
	if trips < 1 {
		t.Fatal("no trips recorded")
	}
}

func TestBreakerSetPerNode(t *testing.T) {
	s := NewBreakerSet(BreakerConfig{Failures: 1, OpenFor: time.Hour, Seed: 5})
	if s.For(2) != s.For(2) {
		t.Fatal("For must be stable per node")
	}
	if s.For(1) == s.For(2) {
		t.Fatal("distinct nodes must get distinct breakers")
	}
	s.For(1).RecordFailure()
	if got := stateOf(s.For(1)); got != StateOpen {
		t.Fatalf("node 1 state = %v, want open", got)
	}
	if got := stateOf(s.For(2)); got != StateClosed {
		t.Fatalf("node 2 state = %v, want closed (isolation)", got)
	}
}

func TestBreakerNilIsAlwaysClosed(t *testing.T) {
	var b *Breaker
	if !b.Allow() || b.SlowAfter() != 0 {
		t.Fatal("nil breaker must behave as closed")
	}
	b.RecordFailure()
	b.RecordSuccess()
	var s *BreakerSet
	if s.For(3) != nil {
		t.Fatal("nil set must hand out nil breakers")
	}
}
