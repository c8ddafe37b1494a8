package bench

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/query"
)

// defaultFaultSchedule stalls every read served by node 1 for longer than
// the scenario's query deadline: only replica reads on other nodes can
// answer in time.
const defaultFaultSchedule = "stall:node=1,dur=400ms"

// faultSchedule lets an operator replay a fault hypothesis against the
// hedged read path (OPERATIONS.md §4 step 4):
//
//	go test ./internal/bench -run TestScenarioReadFaults -v -args -faults 'crash:node=2'
var faultSchedule = flag.String("faults", defaultFaultSchedule,
	"fault schedule DSL for TestScenarioReadFaults (see internal/faultinject)")

// scenarioDataset is the dataset the read-fault and primary-kill scenarios
// run on: small enough that a fault-free query stays far below the
// deadlines below even under the race detector.
func scenarioDataset() DatasetConfig {
	ds := DefaultDataset()
	ds.POIs = 500
	ds.Users = 600
	ds.Regions = 16
	return ds
}

// The read-fault scenario's knobs: every query names faultsFriends friends
// and must answer inside faultsDeadline.
const (
	faultsSeed     = 51
	faultsDeadline = 250 * time.Millisecond
	faultsFriends  = 150
)

// faultsTally is one replay of the query sequence under one policy/injector
// pair.
type faultsTally struct {
	ok           int // non-5xx: complete and degraded answers
	degraded     int
	timeouts     int // the API's 504
	errors       int // the API's 500
	replicaReads int64
}

// replayFaults runs the seeded query sequence — identical across calls —
// under the given read policy and injector, each query under the deadline.
// answers[i] is query i's ranking, nil when it failed or degraded.
func replayFaults(ds *Dataset, pol *query.ReadPolicy, inj *faultinject.Injector, queries int) (tally faultsTally, answers [][]query.ScoredPOI) {
	ds.Engine.SetReadPolicy(pol)
	ds.Engine.SetFaultInjector(inj)
	from, to := ds.Window()
	rng := rand.New(rand.NewSource(faultsSeed))
	answers = make([][]query.ScoredPOI, queries)
	for i := 0; i < queries; i++ {
		spec := query.Spec{
			FriendIDs:  ds.FriendSample(rng, faultsFriends),
			FromMillis: from,
			ToMillis:   to,
			OrderBy:    query.ByInterest,
			Limit:      10,
		}
		ctx, cancel := context.WithTimeout(context.Background(), faultsDeadline)
		res, err := ds.Engine.Run(ctx, spec)
		cancel()
		switch {
		case err == nil:
			tally.ok++
			tally.replicaReads += res.Exec.ReplicaReads
			if res.Degraded {
				tally.degraded++
			} else {
				answers[i] = res.POIs
			}
		case errors.Is(err, context.DeadlineExceeded):
			tally.timeouts++
		default:
			tally.errors++
		}
	}
	return tally, answers
}

// TestScenarioReadFaults replays one query sequence against a replicated
// dataset three times: fault-free, under the fault schedule with the hedged
// read path, and under the same schedule with the mechanism disabled (one
// attempt, no hedge, no degradation). The hedged run must stay >= 99 %
// non-5xx inside the deadline and reproduce the fault-free ranking wherever
// it did not degrade; under the default schedule — a 400 ms stall against a
// 250 ms deadline — the unprotected run must demonstrably fail.
func TestScenarioReadFaults(t *testing.T) {
	const (
		queries = 40
		// Each unprotected failure burns a full deadline of wall clock.
		unprotectedQueries = 4
	)
	sched, err := faultinject.ParseSchedule(*faultSchedule, faultsSeed)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := BuildDataset(scenarioDataset(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Visits.Table().EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	if err := ds.Visits.Table().CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	hedged := query.DefaultReadPolicy()
	hedged.JitterSeed = faultsSeed
	unprotected := query.ReadPolicy{MaxAttempts: 1}

	free, want := replayFaults(ds, &hedged, nil, queries)
	prot, got := replayFaults(ds, &hedged, faultinject.New(sched), queries)
	bare, _ := replayFaults(ds, &unprotected, faultinject.New(sched), unprotectedQueries)
	t.Logf("schedule %q\nfault-free  %+v\nhedged      %+v\nunprotected %+v", *faultSchedule, free, prot, bare)

	if free.ok != queries || free.degraded != 0 {
		t.Fatalf("fault-free baseline not clean: %+v", free)
	}
	if prot.ok*100 < 99*queries {
		t.Errorf("hedged: %d of %d queries answered inside the %s deadline (%d timeouts, %d errors), want >= 99%%",
			prot.ok, queries, faultsDeadline, prot.timeouts, prot.errors)
	}
	for i := range got {
		if got[i] != nil && !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("hedged query %d: complete answer differs from the fault-free one:\ngot  %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if *faultSchedule != defaultFaultSchedule {
		return
	}
	if prot.replicaReads == 0 {
		t.Error("hedged: no replica served a read, so the stall never reached the read path")
	}
	if bare.ok == unprotectedQueries {
		t.Errorf("unprotected: all %d queries answered; a 400ms stall against a %s deadline must fail without hedging", unprotectedQueries, faultsDeadline)
	}
}
