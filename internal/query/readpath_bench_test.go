package query

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"modissense/internal/kvstore"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// benchVisits populates a visits table for `users` users through the
// repository.
func benchVisits(b *testing.B, users int) *repos.VisitsRepo {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	pois := workload.GenPOIs(rng, 300)
	visits, err := repos.NewVisitsRepo(repos.SchemaReplicated, int64(users), 32, 4, kvstore.DefaultStoreOptions())
	if err != nil {
		b.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= int64(users); uid++ {
		for _, v := range workload.GenVisitsForUser(rng, uid, pois, start, end, 10, 2) {
			if err := visits.Store(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	return visits
}

// benchCoprocessor measures the full region-side read path of one
// personalized query with `friends` friends: scan, decode, filter,
// aggregate — the work Figure 2 scales with cluster size.
func benchCoprocessor(b *testing.B, friends int) {
	visits := benchVisits(b, friends)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, int64(friends)), FromMillis: from, ToMillis: to, OrderBy: ByInterest}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	cp := &visitsCoprocessor{
		spec:    &spec,
		schema:  repos.SchemaReplicated,
		friends: sortedDistinctFriends(spec.FriendIDs),
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
		}
		if matched == 0 {
			b.Fatal("benchmark query matched no visits")
		}
	}
}

// BenchmarkCoprocessor6000FriendsBinary reads binary visit payloads through
// the allocation-free view — what every row costs.
func BenchmarkCoprocessor6000FriendsBinary(b *testing.B) {
	benchCoprocessor(b, 6000)
}

// BenchmarkCoprocessor200FriendsBinary keeps `make bench-smoke` fast while
// exercising the identical code path.
func BenchmarkCoprocessor200FriendsBinary(b *testing.B) {
	benchCoprocessor(b, 200)
}
