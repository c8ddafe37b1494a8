package query

import (
	"context"
	"reflect"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/obs"
	"modissense/internal/repos"
)

// scatterOnce runs the coprocessor on every region of f's table into
// plan.outputs, as a query's scatter does, without the read policy.
func scatterOnce(t testing.TB, f *fixture, cp *visitsCoprocessor, plan *queryPlan) {
	plan.outputs = plan.outputs[:0]
	for _, r := range f.visits.Table().Regions() {
		out, err := cp.runRegion(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		plan.outputs = append(plan.outputs, out)
	}
}

// TestQueryAggregationAllocsSteadyState: once one query has warmed the
// pooled aggregation scratches, a query's region aggregation and merge
// allocate what the same scan costs when it matches nothing, plus the
// candidate slice, whatever the number of rows or POIs: the slot maps and
// aggregate slices are reused, not grown again from empty.
func TestQueryAggregationAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	warmAllocs := func(keyword string) (float64, int) {
		// A collection during the run empties the pool of scratches, and
		// the next query allocates them again: no GC while measuring.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Keyword: keyword}
		cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, ranges: friendRanges(spec.FriendIDs, from, to)}
		plan := &queryPlan{spec: &spec, outputs: make([]*regionOutput, 0, len(f.visits.Table().Regions()))}
		stats := &obs.QueryStats{}
		var cands []poiAgg
		query := func() {
			scatterOnce(t, f, cp, plan)
			cands, _ = f.engine.sum(plan, stats)
		}
		query()
		return testing.AllocsPerRun(20, query), len(cands)
	}
	// The per-call constants: each region's aggregator and output and the
	// store's scan set-up (iterators, their merge, version resolution).
	constants, none := warmAllocs("no-such-keyword")
	allocs, cands := warmAllocs("")
	if none != 0 || cands < 200 {
		t.Fatalf("fixture cannot tell: %d and %d candidates", none, cands)
	}
	if allocs > constants+1 {
		t.Errorf("a warm query allocated %v times, want at most %v: its scan's %v and the candidate slice", allocs, constants+1, constants)
	}
}

// TestSumReleasesRegionOutputs pins the ownership rule: after Engine.sum
// every region output's aggregates are gone, the slices they lived in hold
// no payload, and whatever scratch the pool hands out next is empty.
func TestSumReleasesRegionOutputs(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, OrderBy: ByHotness, RegionTopK: 3}
	cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, ranges: friendRanges(spec.FriendIDs, from, to)}
	plan := &queryPlan{spec: &spec}
	scatterOnce(t, f, cp, plan)
	held := make([][]regionAgg, len(plan.outputs))
	for i, out := range plan.outputs {
		held[i] = out.aggs
	}
	if cands, _ := f.engine.sum(plan, &obs.QueryStats{}); len(cands) == 0 {
		t.Fatal("the query matched nothing")
	}
	for i, out := range plan.outputs {
		if out.aggs != nil || out.scratch != nil {
			t.Errorf("region output %d still holds its aggregates after sum", i)
		}
		// The top-k cut left aggregates beyond len; they must go too.
		for j, a := range held[i][:cap(held[i])] {
			if !reflect.DeepEqual(a, regionAgg{}) {
				t.Fatalf("region output %d: slot %d of its released slice holds %+v", i, j, a)
			}
		}
	}
	s := takeScratch()
	if len(s.slot) != 0 || len(s.aggs) != 0 {
		t.Fatalf("a pooled scratch came back holding %d slots and %d aggregates", len(s.slot), len(s.aggs))
	}
	for j, a := range s.aggs[:cap(s.aggs)] {
		if !reflect.DeepEqual(a, regionAgg{}) {
			t.Fatalf("slot %d of a pooled scratch holds %+v", j, a)
		}
	}
}

// referenceRanking is referenceAnswer ranked as the engine ranks: by
// order, POI id ascending as the tiebreak, cut to the limit.
func referenceRanking(t *testing.T, f *fixture, spec Spec) []ScoredPOI {
	t.Helper()
	want := referenceAnswer(t, f, spec)
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if spec.orderOrDefault() == ByHotness && a.Visits != b.Visits {
			return a.Visits > b.Visits
		}
		if spec.orderOrDefault() == ByInterest && a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.POI.ID < b.POI.ID
	})
	if spec.Limit > 0 && len(want) > spec.Limit {
		want = want[:spec.Limit]
	}
	return want
}

// TestConcurrentBatchesWithHedgesMatchOracle runs RunConcurrent batches
// from several goroutines, cache off, while one region's primary stalls
// (its reads are hedged to the replica) and another's fails after scanning
// (its reads are retried there). The pooled aggregation state is shared by
// every query, and the losing attempts' outputs are dropped, never handed
// back: every answer must still equal the full-decode oracle's.
func TestConcurrentBatchesWithHedgesMatchOracle(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	specs := []Spec{
		{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, OrderBy: ByInterest, Limit: 10},
		{FriendIDs: friendRange(5, 30), FromMillis: from, ToMillis: (from + to) / 2, OrderBy: ByHotness, Limit: 5},
		{FriendIDs: friendRange(10, 40), FromMillis: (from + to) / 2, ToMillis: to, OrderBy: ByInterest, Keyword: "food"},
	}
	want := make([][]ScoredPOI, len(specs))
	for i := range specs {
		specs[i].NoCache = true
		want[i] = referenceRanking(t, f, specs[i])
	}
	tbl := f.visits.Table()
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	pol := DefaultReadPolicy()
	pol.MaxAttempts = 3
	pol.BaseBackoff = time.Millisecond
	pol.HedgeMin = time.Millisecond
	pol.HedgeMax = 5 * time.Millisecond
	pol.AllowDegraded = false
	f.engine.SetReadPolicy(&pol)
	regions := tbl.Regions()
	f.engine.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 42, Rules: []faultinject.Rule{
		{Fault: faultinject.Stall, Node: faultinject.Any, Region: regions[0].ID, Replica: 0, Prob: 1, Duration: 200 * time.Millisecond},
		{Fault: faultinject.ScanError, Node: faultinject.Any, Region: regions[len(regions)/2].ID, Replica: 0, Prob: 1},
	}}))

	var hedges, retries int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < 6; b++ {
				batch := []Spec{specs[(g+b)%len(specs)], specs[(g+b+1)%len(specs)]}
				results, err := f.engine.RunConcurrent(context.Background(), batch)
				if err != nil {
					t.Errorf("goroutine %d batch %d: %v", g, b, err)
					return
				}
				for i, res := range results {
					qi := (g + b + i) % len(specs)
					if !reflect.DeepEqual(res.POIs, want[qi]) {
						t.Errorf("goroutine %d batch %d, spec %d: answer diverged from the oracle\ngot  %+v\nwant %+v", g, b, qi, res.POIs, want[qi])
						return
					}
					mu.Lock()
					hedges += res.Exec.Hedges
					retries += res.Exec.Retries
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	if hedges == 0 || retries == 0 {
		t.Errorf("%d hedges and %d retries fired, want both", hedges, retries)
	}
}
