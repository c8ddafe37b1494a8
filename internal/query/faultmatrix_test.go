package query

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"modissense/internal/admit"
	"modissense/internal/exec"
	"modissense/internal/faultinject"
	"modissense/internal/kvstore"
	"modissense/internal/repos"
)

// faultOutcome is what one fault-matrix cell expects from the query.
type faultOutcome int

const (
	wantOK faultOutcome = iota
	wantDegraded
	wantTimeout
)

// TestFaultMatrix drives the fault-tolerant read path through the fault ×
// replica-availability grid: every cell must either serve the exact
// fault-free answer, degrade with precisely the failed region listed, or
// surface the deadline (the HTTP layer's 504) — never a wrong answer.
func TestFaultMatrix(t *testing.T) {
	const stall = 300 * time.Millisecond
	cases := []struct {
		name     string
		replicas int
		rule     func(target int) faultinject.Rule
		policy   func(p *ReadPolicy)
		timeout  time.Duration
		want     faultOutcome
		// wantHedge additionally demands that a latency hedge fired.
		wantHedge bool
	}{
		{
			name:     "crash/primary-with-replica",
			replicas: 1,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.Crash, Node: faultinject.Any, Region: target, Replica: 0, Prob: 1}
			},
			want: wantOK,
		},
		{
			name:     "crash/no-replica-degrades",
			replicas: 0,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.Crash, Node: faultinject.Any, Region: target, Replica: faultinject.Any, Prob: 1}
			},
			want: wantDegraded,
		},
		{
			name:     "crash/all-copies-degrades",
			replicas: 2,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.Crash, Node: faultinject.Any, Region: target, Replica: faultinject.Any, Prob: 1}
			},
			want: wantDegraded,
		},
		{
			name:     "scanerr/primary-with-replica",
			replicas: 1,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.ScanError, Node: faultinject.Any, Region: target, Replica: 0, Prob: 1}
			},
			want: wantOK,
		},
		{
			name:     "scanerr/no-replica-degrades",
			replicas: 0,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.ScanError, Node: faultinject.Any, Region: target, Replica: faultinject.Any, Prob: 1}
			},
			want: wantDegraded,
		},
		{
			name:     "stall/primary-hedges-to-replica",
			replicas: 1,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.Stall, Node: faultinject.Any, Region: target, Replica: 0, Prob: 1, Duration: stall}
			},
			policy: func(p *ReadPolicy) {
				p.HedgeEnabled = true
				p.HedgeMax = 5 * time.Millisecond
				p.HedgeMin = time.Millisecond
			},
			want:      wantOK,
			wantHedge: true,
		},
		{
			name:     "stall/no-replica-times-out",
			replicas: 0,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.Stall, Node: faultinject.Any, Region: target, Replica: faultinject.Any, Prob: 1, Duration: stall}
			},
			timeout: 100 * time.Millisecond,
			want:    wantTimeout,
		},
		{
			name:     "slow/no-replica-still-answers",
			replicas: 0,
			rule: func(target int) faultinject.Rule {
				return faultinject.Rule{Fault: faultinject.SlowScan, Node: faultinject.Any, Region: target, Replica: faultinject.Any, Prob: 1, Factor: 4}
			},
			want: wantOK,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, repos.SchemaReplicated, 2, 10)
			from, to := window()
			spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5}

			// Fault-free baseline with no policy installed: the oracle every
			// successful cell must reproduce exactly.
			baseline, err := f.engine.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}

			if tc.replicas > 0 {
				if err := f.visits.Table().EnableReplication(tc.replicas); err != nil {
					t.Fatal(err)
				}
				if err := f.visits.Table().CatchUpReplication(); err != nil {
					t.Fatal(err)
				}
			}
			pol := DefaultReadPolicy()
			pol.MaxAttempts = 3
			pol.HedgeEnabled = false
			pol.BaseBackoff = time.Millisecond
			if tc.policy != nil {
				tc.policy(&pol)
			}
			f.engine.SetReadPolicy(&pol)
			target := f.visits.Table().Regions()[0].ID
			f.engine.SetFaultInjector(faultinject.New(faultinject.Schedule{
				Seed:  42,
				Rules: []faultinject.Rule{tc.rule(target)},
			}))

			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			res, err := f.engine.Run(ctx, spec)

			switch tc.want {
			case wantTimeout:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("err = %v, want deadline exceeded", err)
				}
				return
			case wantDegraded:
				if err != nil {
					t.Fatalf("degradable query failed outright: %v", err)
				}
				if !res.Degraded {
					t.Error("query not flagged degraded")
				}
				if len(res.MissingRegions) != 1 || res.MissingRegions[0] != target {
					t.Errorf("missing regions = %v, want [%d]", res.MissingRegions, target)
				}
			case wantOK:
				if err != nil {
					t.Fatalf("query failed: %v", err)
				}
				if res.Degraded || len(res.MissingRegions) != 0 {
					t.Fatalf("healthy-path query degraded: missing %v", res.MissingRegions)
				}
				if len(res.POIs) != len(baseline.POIs) {
					t.Fatalf("got %d POIs, baseline %d", len(res.POIs), len(baseline.POIs))
				}
				for i := range res.POIs {
					if res.POIs[i].POI.ID != baseline.POIs[i].POI.ID || res.POIs[i].Visits != baseline.POIs[i].Visits {
						t.Fatalf("POI %d = %+v, baseline %+v", i, res.POIs[i], baseline.POIs[i])
					}
				}
				if tc.wantHedge && res.Exec.Hedges == 0 {
					t.Error("expected a latency hedge to fire")
				}
			}
		})
	}
}

// TestFaultsApplyWithoutReadPolicy is the matrix's no-policy row: the
// injector and the breakers intercept every read attempt whether or not a
// read policy is installed. With none, a region gets one attempt on its
// primary and its failure fails the query.
func TestFaultsApplyWithoutReadPolicy(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 10)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5}
	baseline, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	target := f.visits.Table().Regions()[0]
	f.engine.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 42, Rules: []faultinject.Rule{{
		Fault: faultinject.ScanError, Node: faultinject.Any, Region: target.ID, Replica: faultinject.Any, Prob: 1,
	}}}))
	if _, err := f.engine.Run(context.Background(), spec); !errors.Is(err, exec.ErrAttemptsExhausted) || !errors.Is(err, faultinject.ErrInjectedScan) {
		t.Fatalf("faulted region, no policy: err = %v, want attempts exhausted by the injected scan error", err)
	}
	// Under breakers the same failure trips the primary's node, which then
	// fails fast even once the fault itself is gone.
	f.engine.SetBreakers(admit.NewBreakerSet(admit.BreakerConfig{Failures: 1, OpenFor: 10 * time.Second, Seed: 42}))
	if _, err := f.engine.Run(context.Background(), spec); !errors.Is(err, faultinject.ErrInjectedScan) {
		t.Fatalf("faulted region under breakers: err = %v, want the injected scan error", err)
	}
	f.engine.SetFaultInjector(nil)
	if _, err := f.engine.Run(context.Background(), spec); !errors.Is(err, admit.ErrBreakerOpen) {
		t.Fatalf("healthy region behind a tripped breaker: err = %v, want breaker open", err)
	}
	f.engine.SetBreakers(nil)
	res, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("cleared injector and breakers: %v", err)
	}
	if !reflect.DeepEqual(res.POIs, baseline.POIs) {
		t.Errorf("restored answer differs from the baseline:\ngot  %+v\nwant %+v", res.POIs, baseline.POIs)
	}
}

// TestFaultMatrixFailoverMidRun is the matrix's write-failover row: a
// stream of queries runs while the node hosting a region's primary is
// crashed and failed over. Every query — before, during and after the
// promotion — must reproduce the fault-free answer exactly (the HTTP
// layer's 200, never a 5xx): attempts to the dead node crash, the retry
// rotation reaches the surviving replicas, and after the cutover the
// promoted primary answers directly. The converged table must show the
// moved primary, the down victim, and a clear failover_in_progress
// envelope.
func TestFaultMatrixFailoverMidRun(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 3, 10)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5}

	baseline, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	tbl := f.visits.Table()
	if err := tbl.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(kvstore.FailoverConfig{}); err != nil {
		t.Fatal(err)
	}

	pol := DefaultReadPolicy()
	pol.MaxAttempts = 4
	pol.HedgeEnabled = false
	pol.BaseBackoff = time.Millisecond
	f.engine.SetReadPolicy(&pol)

	victim := tbl.Regions()[0].PrimaryNode()
	// Every read attempt served by the victim crashes, so queries must
	// route around it both while it still owns the primary and after the
	// promotion reassigns its replicas.
	f.engine.SetFaultInjector(faultinject.New(faultinject.Schedule{
		Seed: 42,
		Rules: []faultinject.Rule{{
			Fault: faultinject.Crash, Node: victim,
			Region: faultinject.Any, Replica: faultinject.Any, Prob: 1,
		}},
	}))

	checkExact := func(res *Result) {
		t.Helper()
		if res.Degraded || len(res.MissingRegions) != 0 {
			t.Fatalf("failover query degraded: missing %v", res.MissingRegions)
		}
		if len(res.POIs) != len(baseline.POIs) {
			t.Fatalf("got %d POIs, baseline %d", len(res.POIs), len(baseline.POIs))
		}
		for i := range res.POIs {
			if res.POIs[i].POI.ID != baseline.POIs[i].POI.ID || res.POIs[i].Visits != baseline.POIs[i].Visits {
				t.Fatalf("POI %d = %+v, baseline %+v", i, res.POIs[i], baseline.POIs[i])
			}
		}
	}

	// Query stream concurrent with the promotion below: each iteration
	// must succeed exactly no matter which side of the cutover it lands
	// on.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			res, err := f.engine.Run(context.Background(), spec)
			if err != nil {
				t.Errorf("mid-failover query %d failed: %v", i, err)
				return
			}
			checkExact(res)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	if err := tbl.FailoverNode(victim); err != nil {
		t.Fatalf("FailoverNode(%d): %v", victim, err)
	}
	wg.Wait()

	if got := tbl.Regions()[0].PrimaryNode(); got == victim {
		t.Fatalf("region primary still on downed node %d", victim)
	}
	if h := tbl.NodeHealth(victim); h != kvstore.NodeDown {
		t.Fatalf("victim health = %v, want down", h)
	}
	res, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("post-failover query failed: %v", err)
	}
	checkExact(res)
	if res.FailoverInProgress {
		t.Error("converged table still advertises failover_in_progress")
	}
}

// TestFaultMatrixStallStorm is the matrix's storm row: every attempt served
// by one node stalls far past the hedge threshold. The first query must
// still answer exactly (hedges win via replicas on other nodes) while the
// fail-slow timers trip the stalled node's breaker; the second query must
// route around the open breaker — fast-failed primary attempts retried on
// replicas — again reproducing the fault-free answer with zero degradation.
func TestFaultMatrixStallStorm(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 10)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 10), FromMillis: from, ToMillis: to, Limit: 5}

	baseline, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.visits.Table().EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	if err := f.visits.Table().CatchUpReplication(); err != nil {
		t.Fatal(err)
	}

	pol := DefaultReadPolicy()
	pol.MaxAttempts = 3
	pol.BaseBackoff = time.Millisecond
	pol.HedgeEnabled = true
	// Pin the hedge threshold well above the fail-slow threshold so the
	// stalled attempt is charged as slow before the winning hedge cancels
	// it.
	pol.HedgeMin = 50 * time.Millisecond
	pol.HedgeMax = 50 * time.Millisecond
	f.engine.SetReadPolicy(&pol)
	breakers := admit.NewBreakerSet(admit.BreakerConfig{
		Failures:  1,
		OpenFor:   10 * time.Second, // stays open for the whole test
		SlowAfter: 10 * time.Millisecond,
		Seed:      42,
	})
	f.engine.SetBreakers(breakers)

	stormNode := f.visits.Table().Regions()[0].NodeID
	f.engine.SetFaultInjector(faultinject.New(faultinject.Schedule{
		Seed: 42,
		Rules: []faultinject.Rule{{
			Fault: faultinject.Stall, Node: stormNode,
			Region: faultinject.Any, Replica: faultinject.Any,
			Prob: 1, Duration: 300 * time.Millisecond,
		}},
	}))

	checkExact := func(res *Result) {
		t.Helper()
		if res.Degraded || len(res.MissingRegions) != 0 {
			t.Fatalf("storm query degraded: missing %v", res.MissingRegions)
		}
		if len(res.POIs) != len(baseline.POIs) {
			t.Fatalf("got %d POIs, baseline %d", len(res.POIs), len(baseline.POIs))
		}
		for i := range res.POIs {
			if res.POIs[i].POI.ID != baseline.POIs[i].POI.ID || res.POIs[i].Visits != baseline.POIs[i].Visits {
				t.Fatalf("POI %d = %+v, baseline %+v", i, res.POIs[i], baseline.POIs[i])
			}
		}
	}

	res1, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("storm query 1 failed: %v", err)
	}
	checkExact(res1)
	if res1.Exec.Hedges == 0 {
		t.Error("storm query 1: expected hedges to mask the stall")
	}

	// The fail-slow timers fired mid-query; the breaker must now be open
	// (it refuses attempts for the whole test once it is).
	br := breakers.For(stormNode)
	deadline := time.Now().Add(2 * time.Second)
	for br.Allow() {
		if time.Now().After(deadline) {
			t.Fatalf("breaker for node %d still admits attempts, want open", stormNode)
		}
		time.Sleep(time.Millisecond)
	}

	res2, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("storm query 2 failed: %v", err)
	}
	checkExact(res2)
	// Routed around the open breaker: primary attempts fast-failed and the
	// replicas answered without waiting out another stall.
	if res2.Exec.Retries == 0 {
		t.Error("storm query 2: expected fast retries around the open breaker")
	}
	if res2.Exec.Hedges != 0 {
		t.Errorf("storm query 2 hedged %d times; breaker fast-fail should beat the hedge timer", res2.Exec.Hedges)
	}
}
