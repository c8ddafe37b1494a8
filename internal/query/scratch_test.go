package query

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/matview"
	"modissense/internal/model"
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

// storeVisits stores n visits of user to poi, from time at on, one a
// minute, their grades cycling through 1 to 5.
func storeVisits(t testing.TB, f *fixture, user int64, poi model.POI, at int64, n int) {
	t.Helper()
	for k := 0; k < n; k++ {
		v := model.Visit{UserID: user, Time: at + int64(k)*60_000, Grade: float64(1 + k%5), Network: "twitter", POI: poi}
		if err := f.visits.Store(v); err != nil {
			t.Fatal(err)
		}
	}
}

// emptyScratch fails unless s is as a pooled scratch must be: no touched or
// sparse entry, every dense entry zero, and its aggregate slice zeroed up to
// its capacity.
func emptyScratch(t *testing.T, what string, s *aggScratch) {
	t.Helper()
	if len(s.used) != 0 || len(s.sparse) != 0 || len(s.aggs) != 0 {
		t.Fatalf("%s holds %d touched entries, %d sparse ones and %d aggregates", what, len(s.used), len(s.sparse), len(s.aggs))
	}
	for id, e := range s.dense {
		if e != (aggEntry{}) {
			t.Fatalf("%s: dense entry %d holds %+v", what, id, e)
		}
	}
	for j, a := range s.aggs[:cap(s.aggs)] {
		if !reflect.DeepEqual(a, regionAgg{}) {
			t.Fatalf("%s: slot %d of its aggregate slice holds %+v", what, j, a)
		}
	}
}

// TestSumReleasesRegionOutputs pins the ownership rule: after Engine.sum
// every region output's aggregates are gone, the slices they lived in hold
// no payload, the entries every scratch touched are zero again, and whatever
// scratch the pool hands out next is empty. Its fixture adds POIs whose ids
// lie on both sides of the dense entries' bound — negative, 2²⁰ − 1, 2²⁰ and
// a large sparse one — each visited several times in one region and in more
// than one, and the answer over them equals brute force.
func TestSumReleasesRegionOutputs(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	for i, id := range []int64{-7, -1, maxDenseSlot - 1, maxDenseSlot, 1 << 40} {
		p := model.POI{ID: id, Name: fmt.Sprintf("edge-%d", i), Lat: 37.9, Lon: 23.7, Keywords: []string{"food"}}
		users := []int64{1, 40}
		if id == maxDenseSlot-1 {
			// One region's dense array grows to the bound: 16 MiB.
			users = users[:1]
		}
		for _, user := range users {
			storeVisits(t, f, user, p, from+int64(i)*3_600_000, 3+i)
		}
	}
	all := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, NoCache: true}
	res, err := f.engine.Run(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceRanking(t, f, all); !reflect.DeepEqual(res.POIs, want) {
		t.Fatalf("answer over ids around the dense bound diverged from brute force\ngot  %+v\nwant %+v", res.POIs, want)
	}

	spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, OrderBy: ByHotness, RegionTopK: 3}
	cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, ranges: friendRanges(spec.FriendIDs, from, to)}
	plan := &queryPlan{spec: &spec}
	scatterOnce(t, f, cp, plan)
	held := make([][]regionAgg, len(plan.outputs))
	scratches := make([]*aggScratch, len(plan.outputs))
	dense, sparse := false, false
	for i, out := range plan.outputs {
		held[i], scratches[i] = out.aggs, out.scratch
		dense = dense || len(out.scratch.dense) == maxDenseSlot
		sparse = sparse || len(out.scratch.sparse) > 0
	}
	if !dense || !sparse {
		t.Fatalf("no region grew its dense entries to the bound (%v) or kept a sparse one (%v)", dense, sparse)
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
		emptyScratch(t, fmt.Sprintf("region output %d's released scratch", i), scratches[i])
	}
	emptyScratch(t, "a pooled scratch", takeScratch())
}

// TestAggregatorAlternatingDocumentVersions: a region's rows of one POI
// alternate between two document versions, and only the newer one carries
// the keyword searched. A row must be judged by its own version, never by the
// one the POI's previous row resolved to, so the answer equals brute force.
func TestAggregatorAlternatingDocumentVersions(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	old := model.POI{ID: 9001, Name: "agora", Lat: 37.97, Lon: 23.72, Keywords: []string{"market"}}
	refreshed := old
	refreshed.Keywords = []string{"market", "fresh-fish"}
	refreshed.Hotness = 0.8
	for k := int64(0); k < 8; k++ {
		p := old
		if k%2 == 1 {
			p = refreshed
		}
		storeVisits(t, f, 3, p, from+k*60_000, 1)
	}
	for _, spec := range []Spec{
		{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Keyword: "fresh-fish", NoCache: true},
		{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Keyword: "market", NoCache: true},
	} {
		res, err := f.engine.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRanking(t, f, spec)
		if len(want) != 1 || want[0].POI.ID != old.ID {
			t.Fatalf("keyword %q: brute force found %+v, want POI %d alone", spec.Keyword, want, old.ID)
		}
		if !reflect.DeepEqual(res.POIs, want) {
			t.Errorf("keyword %q: answer diverged from brute force\ngot  %+v\nwant %+v", spec.Keyword, res.POIs, want)
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

// sumOnce scatters spec over every region of f and sums the outputs: the
// merge candidates of one query.
func sumOnce(t testing.TB, f *fixture, spec *Spec) []poiAgg {
	t.Helper()
	cp := &visitsCoprocessor{spec: spec, schema: f.visits.Schema(), ranges: friendRanges(sortedDistinctFriends(spec.FriendIDs), spec.FromMillis, spec.ToMillis)}
	plan := &queryPlan{spec: spec}
	scatterOnce(t, f, cp, plan)
	cands, _ := f.engine.sum(plan, &obs.QueryStats{})
	return cands
}

// TestSumBytesPerCandidate: a candidate of a shared-document row costs sum
// its entry in the candidate slice and nothing more — it points at the shared
// version instead of copying the document's struct. Measured around sum
// alone with the GC off, the least of several warm rounds, so a pooled
// scratch that had to grow does not count.
func TestSumBytesPerCandidate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what is put back")
	}
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to}
	cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, ranges: friendRanges(spec.FriendIDs, from, to)}
	plan := &queryPlan{spec: &spec}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	least, n := uint64(math.MaxUint64), 0
	for round := 0; round < 8; round++ {
		scatterOnce(t, f, cp, plan)
		runtime.ReadMemStats(&before)
		cands, _ := f.engine.sum(plan, &obs.QueryStats{})
		runtime.ReadMemStats(&after)
		least, n = min(least, after.TotalAlloc-before.TotalAlloc), len(cands)
	}
	if n < 200 {
		t.Fatalf("fixture cannot tell: %d candidates", n)
	}
	t.Logf("sum allocated %d B for %d candidates", least, n)
	if bound := uint64(32*n + 1024); least > bound {
		t.Errorf("sum allocated %d B for %d candidates (%.1f B each), want at most %d", least, n, float64(least)/float64(n), bound)
	}
}

// TestRankAllocs: a limited ranking allocates the heap's items and the
// answer, nothing per candidate — the heap neither boxes what it keeps nor
// grows, and only the answer's k entries copy a document.
func TestRankAllocs(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Limit: 10}
	cands := sumOnce(t, f, &spec)
	if len(cands) < 200 {
		t.Fatalf("fixture cannot tell: %d candidates", len(cands))
	}
	var pois []ScoredPOI
	if allocs := testing.AllocsPerRun(50, func() { pois = f.engine.rank(&spec, cands) }); allocs != 2 {
		t.Errorf("a limit-10 rank over %d candidates allocated %v times, want 2", len(cands), allocs)
	}
	if len(pois) != spec.Limit {
		t.Fatalf("ranked %d POIs, want %d", len(pois), spec.Limit)
	}
}

// TestCandidatesPointAtSharedVersions: under the replicated schema every
// candidate sum builds, and every one Patch creates for a friend's
// check-in, is the shared version of its document itself, not a copy.
func TestCandidatesPointAtSharedVersions(t *testing.T) {
	f, cache, _ := cachedFixture(t)
	catalog := make(map[int64]*model.POI, len(f.pois))
	for i := range f.pois {
		catalog[f.pois[i].ID] = &f.pois[i]
	}
	shared := func(id int64) *model.POI {
		p, _, err := model.InternPOI(catalog[id])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 12), FromMillis: from, ToMillis: to, Limit: 5}
	cands := sumOnce(t, f, &spec)
	seen := map[int64]bool{}
	for _, c := range cands {
		seen[c.poi.ID] = true
		if c.poi != shared(c.poi.ID) {
			t.Fatalf("sum's candidate of POI %d holds a copy of its document, not the shared version", c.poi.ID)
		}
	}
	fresh := int64(0)
	for _, p := range f.pois {
		if !seen[p.ID] {
			fresh = p.ID
			break
		}
	}
	if fresh == 0 {
		t.Fatal("every catalog POI is a candidate")
	}
	prime(t, f, spec)
	if err := f.visits.Store(model.Visit{UserID: 4, Time: from + 1000, Grade: 3, Network: "facebook", POI: *catalog[fresh]}); err != nil {
		t.Fatal(err)
	}
	found := false
	cache.Get(f.engine.cacheKey(&spec, sortedDistinctFriends(spec.FriendIDs)), func(v matview.Value) {
		for _, c := range v.(*cachedRanking).cands {
			if c.poi.ID == fresh {
				found = true
				if c.poi != shared(fresh) {
					t.Errorf("Patch's candidate of POI %d holds a copy of its document, not the shared version", fresh)
				}
			}
		}
	})
	if !found {
		t.Fatalf("the check-in at POI %d created no candidate in the cached entry", fresh)
	}
}
