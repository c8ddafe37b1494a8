package query

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"modissense/internal/cluster"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/obs"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// benchVisits populates a visits table of `regions` regions on four nodes
// for `users` users visiting a catalog of `catalog` POIs through the
// repository. With two versions, every other
// visit of a user, in time order, carries a refreshed copy of its POI's
// document (as after a HotIn refresh), so a region's rows of one POI
// alternate between two documents.
func benchVisits(b *testing.B, users, catalog, versions, regions int) *repos.VisitsRepo {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pois := workload.GenPOIs(rng, catalog)
	visits, err := repos.NewVisitsRepo(repos.SchemaReplicated, int64(users), regions, 4, kvstore.DefaultStoreOptions())
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= int64(users); uid++ {
		vs := workload.GenVisitsForUser(rng, uid, pois, start, end, 10, 2)
		if versions == 2 {
			slices.SortFunc(vs, func(a, b model.Visit) int { return cmp.Compare(a.Time, b.Time) })
		}
		for i, v := range vs {
			if versions == 2 && i%2 == 1 {
				v.POI.Hotness++
			}
			if err := visits.Store(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	return visits
}

// benchCoprocessor measures the full region-side read path of one
// personalized query with `friends` friends: scan, decode, filter,
// aggregate — the work Figure 2 scales with cluster size. Each output is
// released as Engine.sum releases it, so the aggregation state is reused
// across iterations as it is across queries.
func benchCoprocessor(b *testing.B, friends, catalog, versions int) {
	visits := benchVisits(b, friends, catalog, versions, 32)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, int64(friends)), FromMillis: from, ToMillis: to, OrderBy: ByInterest}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	cp := &visitsCoprocessor{
		spec:   &spec,
		schema: repos.SchemaReplicated,
		ranges: friendRanges(sortedDistinctFriends(spec.FriendIDs), from, to),
	}
	regions := visits.Table().Regions()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched := 0
		for _, r := range regions {
			out, err := cp.runRegion(ctx, r)
			if err != nil {
				b.Fatal(err)
			}
			matched += out.work.VisitsMatched
			out.release()
		}
		if matched == 0 {
			b.Fatal("benchmark query matched no visits")
		}
	}
}

// BenchmarkCoprocessor6000FriendsBinary reads binary visit payloads through
// the allocation-free view — what every row costs.
func BenchmarkCoprocessor6000FriendsBinary(b *testing.B) {
	benchCoprocessor(b, 6000, 300, 1)
}

// BenchmarkCoprocessor200FriendsBinary keeps `make bench-smoke` fast while
// exercising the identical code path.
func BenchmarkCoprocessor200FriendsBinary(b *testing.B) {
	benchCoprocessor(b, 200, 300, 1)
}

// BenchmarkCoprocessor200FriendsTwoVersions is the same query over 20 POIs
// whose rows alternate between two document versions: most rows name
// another version than the POI's previous row, and resolve theirs in the
// shared table.
func BenchmarkCoprocessor200FriendsTwoVersions(b *testing.B) {
	benchCoprocessor(b, 200, 20, 2)
}

// BenchmarkMergeRank measures the web server's merge of one personalized
// query in the repository benchmark's search_scan shape: the outputs of 12
// regions, 1000 friends' visits over an 800-POI catalog, summed into one
// candidate per POI (Engine.sum) and ranked to a limit of 10
// (Engine.rank). Each iteration refills the region outputs from the one
// scan made at set-up, off the clock.
func BenchmarkMergeRank(b *testing.B) {
	const friends, catalog = 1000, 800
	visits := benchVisits(b, friends, catalog, 1, 12)
	clus, err := cluster.New(cluster.DefaultConfig(4))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(visits, repos.NewPOIRepo(), clus)
	if err != nil {
		b.Fatal(err)
	}
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, friends), FromMillis: from, ToMillis: to, Limit: 10}
	cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, ranges: friendRanges(spec.FriendIDs, from, to)}
	regions := visits.Table().Regions()
	plan := &queryPlan{spec: &spec, outputs: make([]*regionOutput, len(regions))}
	held := make([]regionOutput, len(regions))
	for i, r := range regions {
		out, err := cp.runRegion(context.Background(), r)
		if err != nil {
			b.Fatal(err)
		}
		held[i] = regionOutput{aggs: slices.Clone(out.aggs), work: out.work}
		out.release()
	}
	var stats obs.QueryStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := range held {
			s := takeScratch()
			plan.outputs[r] = &regionOutput{aggs: append(s.aggs, held[r].aggs...), work: held[r].work, scratch: s}
		}
		b.StartTimer()
		cands, work := eng.sum(plan, &stats)
		if pois := eng.rank(&spec, cands); len(pois) != spec.Limit || work.CandidatePOIs < catalog {
			b.Fatalf("merged %d region candidates into %d POIs, want at least %d and %d", work.CandidatePOIs, len(pois), catalog, spec.Limit)
		}
	}
}
