package exec

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRetryBudgetTokens(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	if !b.Spend() || !b.Spend() {
		t.Fatal("burst tokens should allow two spends")
	}
	if b.Spend() {
		t.Fatal("third spend should be denied with the budget drained")
	}
	// Two primary attempts earn 2×0.5 = 1 token.
	b.OnAttempt()
	b.OnAttempt()
	if !b.Spend() {
		t.Fatal("earned token should allow one spend")
	}
	if b.Spend() {
		t.Fatal("budget should be drained again")
	}
	// Earnings cap at the burst.
	for i := 0; i < 100; i++ {
		b.OnAttempt()
	}
	if got := b.tokens; got != 2 {
		t.Fatalf("tokens = %v, want burst cap 2", got)
	}
}

func TestRetryBudgetNilAllowsEverything(t *testing.T) {
	var b *RetryBudget
	b.OnAttempt()
	if !b.Spend() {
		t.Fatal("nil budget must allow")
	}
}

// TestRunHedgedRetryBudget drains a one-token budget and checks RunHedged
// stops retrying with ErrRetryBudgetExhausted instead of burning its full
// attempt budget.
func TestRunHedgedRetryBudget(t *testing.T) {
	b := NewRetryBudget(0, 1)
	rp := RetryPolicy{MaxAttempts: 4, Budget: b}
	attempts := 0
	fail := func(ctx context.Context, attempt, replica int) (interface{}, error) {
		attempts++
		return nil, errors.New("boom")
	}
	_, meta, err := RunHedged(context.Background(), 1, 0, rp, HedgePolicy{}, fail)
	if !errors.Is(err, ErrAttemptsExhausted) || !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrAttemptsExhausted+ErrRetryBudgetExhausted", err)
	}
	// One burst token: primary + one retry, then the budget denies.
	if attempts != 2 || meta.Attempts != 2 {
		t.Fatalf("attempts = %d (meta %d), want 2", attempts, meta.Attempts)
	}

	// A second read starts with zero tokens: single attempt only.
	attempts = 0
	_, meta, err = RunHedged(context.Background(), 1, 0, rp, HedgePolicy{}, fail)
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	if attempts != 1 || meta.Attempts != 1 {
		t.Fatalf("attempts = %d (meta %d), want 1", attempts, meta.Attempts)
	}
}

// TestRunHedgedBudgetSuppressesHedge checks a drained budget silently skips
// the latency hedge while the slow primary still completes.
func TestRunHedgedBudgetSuppressesHedge(t *testing.T) {
	b := NewRetryBudget(0, 1)
	if !b.Spend() {
		t.Fatal("setup: drain the budget")
	}
	rp := RetryPolicy{MaxAttempts: 3, Budget: b}
	hp := HedgePolicy{Enabled: true, Max: 1} // hedge wants to fire ~immediately
	launched := 0
	fn := func(ctx context.Context, attempt, replica int) (interface{}, error) {
		launched++
		// Slow enough that an allowed hedge would have fired.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
		return "ok", nil
	}
	v, meta, err := RunHedged(context.Background(), 1, 1, rp, hp, fn)
	if err != nil || v != "ok" {
		t.Fatalf("v, err = %v, %v", v, err)
	}
	if launched != 1 || meta.Hedged {
		t.Fatalf("launched = %d, hedged = %v; want 1 attempt and no hedge", launched, meta.Hedged)
	}
}
