package query

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"modissense/internal/model"
	"modissense/internal/repos"
)

// TestStreamingTopKMatchesOracleProperty feeds randomized aggregate sets —
// duplicated scores included, so the POI-id tiebreak is exercised — through
// the bounded heap in random order and checks the result against the exact
// sort-then-truncate oracle, for both ranking criteria.
func TestStreamingTopKMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, order := range []OrderBy{ByInterest, ByHotness} {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(60)
			aggs := make([]poiAgg, n)
			used := map[int64]bool{}
			for i := range aggs {
				id := int64(rng.Intn(2*n+1) + 1)
				for used[id] {
					id++
				}
				used[id] = true
				// Small integer grades/visits force frequent score ties.
				aggs[i] = poiAgg{
					poi:        &model.POI{ID: id},
					gradeUnits: model.GradeUnits(float64(rng.Intn(12) + 1)),
					visits:     rng.Intn(4) + 1,
				}
			}
			k := rng.Intn(12) + 1
			oracle := append([]poiAgg(nil), aggs...)
			sortAggs(oracle, order)
			if len(oracle) > k {
				oracle = oracle[:k]
			}
			h := &boundedAggHeap{order: order, k: k}
			for _, i := range rng.Perm(n) {
				h.offer(&aggs[i])
			}
			got := h.sorted()
			if len(oracle) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("order=%s trial=%d k=%d n=%d:\nheap   = %+v\noracle = %+v", order, trial, k, n, got, oracle)
			}
		}
	}
}

// TestMergeStreamingMatchesExactEndToEnd runs the same query through the
// streaming (Limit=k) and exact (Limit=0, truncated by hand) merge paths
// against real randomized region outputs and demands identical rankings.
func TestMergeStreamingMatchesExactEndToEnd(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 60)
	from, to := window()
	for _, order := range []OrderBy{ByInterest, ByHotness} {
		spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, OrderBy: order}
		exact, err := f.engine.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		const k = 7
		spec.Limit = k
		streamed, err := f.engine.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.POIs
		if len(want) > k {
			want = want[:k]
		}
		if !reflect.DeepEqual(streamed.POIs, want) {
			t.Errorf("order=%s: streaming top-%d diverges from exact merge:\n got %+v\nwant %+v", order, k, streamed.POIs, want)
		}
	}
}

func TestRunReportsExecStats(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 40)
	from, to := window()
	res, err := f.engine.Run(context.Background(), Spec{FriendIDs: friendRange(1, 30), FromMillis: from, ToMillis: to, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.Tasks == 0 {
		t.Error("Exec.Tasks = 0; the fan-out should have recorded its tasks")
	}
	if res.Exec.RowsScanned == 0 {
		t.Error("Exec.RowsScanned = 0; scans should have counted rows")
	}
	if res.Exec.BytesMerged == 0 {
		t.Error("Exec.BytesMerged = 0; merge should have estimated shipped bytes")
	}
}

func TestRunCancelledContext(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 40)
	from, to := window()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := f.engine.Run(ctx, Spec{FriendIDs: friendRange(1, 30), FromMillis: from, ToMillis: to})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := f.engine.Trending(ctx, Spec{FriendIDs: friendRange(1, 5), FromMillis: from, ToMillis: to}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Trending with cancelled ctx: err = %v, want context.Canceled", err)
	}
	attachView(t, f)
	if _, err := f.engine.Trending(ctx, Spec{FromMillis: from, ToMillis: to}); !errors.Is(err, context.Canceled) {
		t.Fatalf("friendless Trending with cancelled ctx: err = %v, want context.Canceled", err)
	}
}
