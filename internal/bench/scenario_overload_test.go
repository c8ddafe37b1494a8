package bench

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"modissense/client"
	"modissense/internal/admit"
	"modissense/internal/core"
	"modissense/internal/exec"
	"modissense/internal/faultinject"
)

// The overload scenario's knobs. The storm stalls every read on node 1 for
// 400 ms — under the 600 ms request deadline, far over the 100 ms hedge
// cap — while the clients push their scatters through a four-worker
// exec pool.
const (
	overloadSeed        = 73
	overloadSchedule    = "stall:node=1,dur=400ms"
	overloadDeadline    = 600 * time.Millisecond
	overloadWorkers     = 4
	overloadBudgetRatio = 0.2
	// overloadBudgetBurst is the retry budget's burst as core.New wires it.
	overloadBudgetBurst = 10
	// overloadBatchEvery makes every 4th request of a client a batch
	// trending query; the rest are interactive searches.
	overloadBatchEvery = 4
)

// overloadTally is the outcome of one mode's load.
type overloadTally struct {
	servedSearches int // 200s to interactive requests
	rejected       int // 429s and 503s
	malformed      int // 429/503 without Retry-After or the "overloaded" code
	timeouts       int // 504s
	errors         int // every other status, transport failures included
	// retries and hedges sum the exec snapshots of the served answers.
	retries, hedges int64
	budgetAttempts  int64
}

// driveOverload boots one platform behind the real HTTP stack — with the
// whole protection stack (admission, bounded exec queue, breakers, retry
// budget, hedged reads) or with every layer off — arms the stall storm and
// has clients concurrent clients issue requests requests each, back to
// back. Before returning it waits for the exec queue and the goroutine
// count to come back to their pre-load baseline and fails the test if they
// do not.
func driveOverload(t *testing.T, protect bool, clients, requests int) overloadTally {
	t.Helper()
	// A fresh process-wide pool per mode: the unprotected run must not
	// inherit the protected run's queue cap.
	exec.SetDefaultWorkers(overloadWorkers)

	cfg := core.DefaultConfig()
	cfg.POIs = 250
	cfg.NetworkPopulation = 500
	cfg.MeanFriends = 12
	cfg.ClassifierTrainDocs = 300
	cfg.Seed = overloadSeed
	cfg.QueryTimeout = overloadDeadline
	cfg.ReadReplicas = 1
	// One attempt keeps the unprotected read on the injectable path while
	// disabling every protection.
	cfg.ReadMaxAttempts = 1
	cfg.AllowDegraded = false
	if protect {
		cfg.ReadMaxAttempts = 3 // with the replica: hedged
		cfg.ExecQueueCap = 16
		cfg.RetryBudgetRatio = overloadBudgetRatio
	}
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if protect {
		// Two tunings the storm needs and no flag offers are installed the
		// way core.New installs its own: a burst a third of the rate (the
		// derived one, a full second's worth, would admit the whole load),
		// and breakers that stay open for the rest of the run.
		pool := exec.Default()
		runTimes := exec.NewLatencyTracker(0)
		pool.SetRunTracker(runTimes)
		p.Admission = admit.NewController(admit.Config{
			InteractiveQPS: 60, InteractiveBurst: 20,
			BatchQPS: 30, BatchBurst: 10,
			QueueLen: pool.QueueLen, Workers: pool.Workers(), RunTime: runTimes,
		})
		p.Query.SetBreakers(admit.NewBreakerSet(admit.BreakerConfig{
			Failures: 2, OpenFor: 5 * time.Second, SlowAfter: 10 * time.Millisecond, Seed: overloadSeed,
		}))
	}
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := time.Date(2015, 5, 8, 0, 0, 0, 0, time.UTC)
	if _, err := p.Collect(since, until); err != nil {
		t.Fatal(err)
	}
	if err := p.Visits.Table().CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	sched, err := faultinject.ParseSchedule(overloadSchedule, overloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	p.Query.SetFaultInjector(faultinject.New(sched))

	srv := httptest.NewServer(core.NewHandler(p))
	defer srv.Close()
	baseGoroutines := runtime.NumGoroutine()

	var (
		mu    sync.Mutex
		tally overloadTally
		wg    sync.WaitGroup
	)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := client.New(srv.URL, srv.Client())
			if err != nil {
				t.Error(err)
				return
			}
			// The scenario reads the server's raw answers; client-side
			// retries would mask the 429/503s under test.
			cl.SetRetryPolicy(client.RetryPolicy{})
			if _, err := cl.SignIn("facebook", fmt.Sprintf("facebook:%d", ci+1)); err != nil {
				t.Error(err)
				return
			}
			friends, err := cl.Friends("")
			if err != nil {
				t.Error(err)
				return
			}
			ids := make([]int64, len(friends))
			for i, f := range friends {
				ids[i] = f.ID
			}
			for ri := 0; ri < requests; ri++ {
				batch := ri%overloadBatchEvery == overloadBatchEvery-1
				var callErr error
				var retries, hedges int64
				if batch {
					_, callErr = cl.Trending(0, 0, 0, 0, 168, 5, until)
				} else {
					r, err := cl.Search(client.SearchParams{Friends: ids, From: since, To: until, Limit: 5})
					if callErr = err; err == nil {
						retries, hedges = r.Exec.Retries, r.Exec.Hedges
					}
				}
				var apiErr *client.APIError
				isAPIErr := errors.As(callErr, &apiErr)
				if isAPIErr && apiErr.RetryAfter > 0 {
					// Back off as the hint asks, capped to keep the test short:
					// a client that hammers through its requests in the few
					// milliseconds before the breaker opens sees only the storm.
					time.Sleep(20 * time.Millisecond)
				}
				mu.Lock()
				switch {
				case callErr == nil:
					if !batch {
						tally.servedSearches++
					}
					tally.retries += retries
					tally.hedges += hedges
				case !isAPIErr:
					tally.errors++
				case apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable:
					tally.rejected++
					if apiErr.RetryAfter <= 0 || apiErr.Code != client.CodeOverloaded {
						tally.malformed++
					}
				case apiErr.Status == http.StatusGatewayTimeout:
					tally.timeouts++
				default:
					tally.errors++
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	if b := p.Query.RetryBudget(); b != nil {
		tally.budgetAttempts = b.Attempts()
	}
	p.Query.SetFaultInjector(nil)

	// Storm-stalled losers and breaker probes wind down on their own; the
	// keep-alive connections are the test's to close. Then nothing may be
	// left behind: no queued scatter, no leaked goroutine.
	srv.Client().Transport.(*http.Transport).CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for exec.Default().QueueLen() != 0 || runtime.NumGoroutine() > baseGoroutines+2 {
		if time.Now().After(deadline) {
			t.Errorf("protect=%v: after the load the exec queue holds %d waiters and %d goroutines run (baseline %d)",
				protect, exec.Default().QueueLen(), runtime.NumGoroutine(), baseGoroutines)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("protect=%v: %+v", protect, tally)
	return tally
}

// TestScenarioOverload drives a stall storm through the real HTTP stack
// while concurrent interactive and batch clients saturate a deliberately
// small exec pool. With the protection stack on, every answer is either
// service or a well-formed rejection — never a deadline blowout or an
// internal error — retry amplification stays inside the budget, and the
// queue and goroutines drain afterwards; with every layer off, the same
// storm demonstrably breaks the API. It swaps the process-wide exec pool,
// so it must not run in parallel with anything.
func TestScenarioOverload(t *testing.T) {
	t.Cleanup(func() { exec.SetDefaultWorkers(0) })
	prot := driveOverload(t, true, 6, 10)
	if prot.timeouts != 0 || prot.errors != 0 {
		t.Errorf("protected: %d timeouts and %d errors; every answer must be service or a rejection", prot.timeouts, prot.errors)
	}
	if prot.malformed != 0 {
		t.Errorf("protected: %d overload answers lack Retry-After or the %q code", prot.malformed, client.CodeOverloaded)
	}
	if prot.rejected == 0 {
		t.Error("protected: nothing was shed under the storm")
	}
	if prot.servedSearches == 0 {
		t.Error("protected: no interactive search was served")
	}
	if bound := overloadBudgetBurst + overloadBudgetRatio*float64(prot.budgetAttempts); float64(prot.retries+prot.hedges) > bound {
		t.Errorf("protected: %d retries + %d hedges exceed the budget's %.1f (burst %d + %.1f x %d attempts)",
			prot.retries, prot.hedges, bound, overloadBudgetBurst, overloadBudgetRatio, prot.budgetAttempts)
	}

	// Every failure below burns a full deadline of wall clock, so the bare
	// platform gets a lighter, search-only load.
	bare := driveOverload(t, false, 3, 2)
	if bare.timeouts+bare.errors == 0 {
		t.Errorf("unprotected: %+v — a 400ms stall on a bare platform must surface as timeouts or errors", bare)
	}
}
