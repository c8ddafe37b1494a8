package query

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"modissense/internal/cluster"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// fixture builds a populated engine: POI catalog, visits for a set of
// users, and a simulated cluster.
type fixture struct {
	engine *Engine
	pois   []model.POI
	visits *repos.VisitsRepo
	poiNew *repos.POIRepo
}

func newFixture(t testing.TB, schema repos.VisitSchema, nodes, users int) *fixture {
	return newFixtureVisits(t, schema, nodes, users, 20)
}

// newFixtureVisits also controls the mean visits per user (the paper's
// dataset uses 170).
func newFixtureVisits(t testing.TB, schema repos.VisitSchema, nodes, users int, visitMean float64) *fixture {
	return newFixtureWith(t, schema, nodes, users, visitMean, nil)
}

// newFixtureWith also passes every generated visit through edit before it is
// stored (nil stores them as generated).
func newFixtureWith(t testing.TB, schema repos.VisitSchema, nodes, users int, visitMean float64, edit func(*model.Visit)) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	pois := workload.GenPOIs(rng, 300)
	poiRepo := repos.NewPOIRepo()
	for _, p := range pois {
		if _, err := poiRepo.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	visits, err := repos.NewVisitsRepo(schema, int64(users), 32, nodes, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= int64(users); uid++ {
		for _, v := range workload.GenVisitsForUser(rng, uid, pois, start, end, visitMean, visitMean/8) {
			if edit != nil {
				edit(&v)
			}
			if err := visits.Store(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	clus, err := cluster.New(cluster.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(visits, poiRepo, clus)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{engine: eng, pois: pois, visits: visits, poiNew: poiRepo}
}

func window() (int64, int64) {
	return model.Millis(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)),
		model.Millis(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
}

func friendRange(from, to int64) []int64 {
	var out []int64
	for id := from; id <= to; id++ {
		out = append(out, id)
	}
	return out
}

func TestSpecValidate(t *testing.T) {
	if err := (&Spec{}).Validate(); err == nil {
		t.Error("no friends must fail")
	}
	if err := (&Spec{FriendIDs: []int64{1}, FromMillis: 10, ToMillis: 5}).Validate(); err == nil {
		t.Error("inverted window must fail")
	}
	if err := (&Spec{FriendIDs: []int64{1}, OrderBy: "bogus"}).Validate(); err == nil {
		t.Error("bad order must fail")
	}
	if err := (&Spec{FriendIDs: []int64{1}, Limit: -1}).Validate(); err == nil {
		t.Error("negative limit must fail")
	}
	if err := (&Spec{FriendIDs: []int64{1}, OrderBy: ByHotness}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil, nil); err == nil {
		t.Error("nil deps must fail")
	}
}

// referenceAnswer computes the expected result by brute force over the
// visits repository.
func referenceAnswer(t *testing.T, f *fixture, spec Spec) []ScoredPOI {
	t.Helper()
	type agg struct {
		poi    model.POI
		sum    float64
		visits int
	}
	byPOI := map[int64]*agg{}
	friends := map[int64]bool{}
	for _, friend := range spec.FriendIDs {
		friends[friend] = true
	}
	err := f.visits.ScanAll(func(v model.Visit) bool {
		if !friends[v.UserID] || v.Time < spec.FromMillis || v.Time > spec.ToMillis {
			return true
		}
		poi := v.POI
		if f.visits.Schema() == repos.SchemaNormalized {
			full, ok := f.poiNew.Get(poi.ID)
			if !ok {
				return true
			}
			poi = full
		}
		if spec.BBox != nil && !spec.BBox.Contains(poi.Point()) {
			return true
		}
		if spec.Keyword != "" {
			found := false
			for _, k := range poi.Keywords {
				if k == spec.Keyword {
					found = true
				}
			}
			if !found {
				return true
			}
		}
		a := byPOI[poi.ID]
		if a == nil {
			a = &agg{poi: poi}
			byPOI[poi.ID] = a
		}
		a.sum += v.Grade
		a.visits++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []ScoredPOI
	for _, a := range byPOI {
		out = append(out, ScoredPOI{POI: a.poi, Score: a.sum / float64(a.visits), Visits: a.visits})
	}
	return out
}

func TestPersonalizedMatchesReference(t *testing.T) {
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		t.Run(schema.String(), func(t *testing.T) {
			f := newFixture(t, schema, 4, 60)
			from, to := window()
			box := geo.RectAround(geo.Point{Lat: 37.9838, Lon: 23.7275}, 100000)
			spec := Spec{
				BBox:       &box,
				Keyword:    "restaurant",
				FriendIDs:  friendRange(1, 40),
				FromMillis: from, ToMillis: to,
				OrderBy: ByInterest,
			}
			res, err := f.engine.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceAnswer(t, f, spec)
			if len(res.POIs) != len(want) {
				t.Fatalf("got %d POIs, reference %d", len(res.POIs), len(want))
			}
			wantByID := map[int64]ScoredPOI{}
			for _, w := range want {
				wantByID[w.POI.ID] = w
			}
			for i, got := range res.POIs {
				w, ok := wantByID[got.POI.ID]
				if !ok {
					t.Fatalf("unexpected POI %d in results", got.POI.ID)
				}
				if got.Visits != w.Visits || !close(got.Score, w.Score) {
					t.Fatalf("POI %d: got %d/%.3f want %d/%.3f", got.POI.ID, got.Visits, got.Score, w.Visits, w.Score)
				}
				// Keyword and bbox hold on every result.
				if !box.Contains(got.POI.Point()) {
					t.Fatalf("result %d outside bbox", got.POI.ID)
				}
				// Ranking is monotone in score.
				if i > 0 && res.POIs[i-1].Score < got.Score-1e-9 {
					t.Fatalf("results not sorted by score at %d", i)
				}
			}
			if res.LatencySeconds <= 0 {
				t.Error("latency must be positive")
			}
			if res.Work.Friends != 40 {
				t.Errorf("friends probed = %d, want 40", res.Work.Friends)
			}
		})
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestLimitAndHotnessOrder(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 50)
	from, to := window()
	spec := Spec{
		FriendIDs:  friendRange(1, 50),
		FromMillis: from, ToMillis: to,
		OrderBy: ByHotness,
		Limit:   5,
	}
	res, err := f.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) != 5 {
		t.Fatalf("limit ignored: %d results", len(res.POIs))
	}
	for i := 1; i < len(res.POIs); i++ {
		if res.POIs[i-1].Visits < res.POIs[i].Visits {
			t.Error("hotness order broken")
		}
	}
	// The top hotness result must match the brute-force maximum.
	want := referenceAnswer(t, f, Spec{FriendIDs: spec.FriendIDs, FromMillis: from, ToMillis: to})
	best := 0
	for _, w := range want {
		if w.Visits > best {
			best = w.Visits
		}
	}
	if res.POIs[0].Visits != best {
		t.Errorf("top visits = %d, want %d", res.POIs[0].Visits, best)
	}
}

func TestTimeWindowFilters(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 20)
	from, _ := window()
	// Empty window (before any data).
	res, err := f.engine.Run(context.Background(), Spec{FriendIDs: friendRange(1, 20), FromMillis: 0, ToMillis: from - 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) != 0 {
		t.Errorf("pre-data window returned %d POIs", len(res.POIs))
	}
	if res.Work.RowsScanned != 0 {
		t.Errorf("pre-data window scanned %d rows", res.Work.RowsScanned)
	}
}

func TestSchemasAgreeOnResults(t *testing.T) {
	fr := newFixture(t, repos.SchemaReplicated, 4, 40)
	fn := newFixture(t, repos.SchemaNormalized, 4, 40)
	from, to := window()
	box := geo.RectAround(geo.Point{Lat: 37.9838, Lon: 23.7275}, 150000)
	spec := Spec{
		BBox: &box, Keyword: "food",
		FriendIDs:  friendRange(5, 35),
		FromMillis: from, ToMillis: to,
		OrderBy: ByInterest,
	}
	r1, err := fr.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fn.engine.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.POIs) != len(r2.POIs) {
		t.Fatalf("schema disagreement: %d vs %d POIs", len(r1.POIs), len(r2.POIs))
	}
	for i := range r1.POIs {
		if r1.POIs[i].POI.ID != r2.POIs[i].POI.ID || r1.POIs[i].Visits != r2.POIs[i].Visits {
			t.Fatalf("rank %d differs: %+v vs %+v", i, r1.POIs[i], r2.POIs[i])
		}
	}
	// The normalized schema must be slower: it ships every candidate and
	// pays the join.
	if r2.LatencySeconds <= r1.LatencySeconds {
		t.Errorf("normalized (%.4fs) must be slower than replicated (%.4fs)", r2.LatencySeconds, r1.LatencySeconds)
	}
}

// TestFigure2Shape asserts the headline scalability result: latency grows
// roughly linearly with the friend count and shrinks with cluster size.
func TestFigure2Shape(t *testing.T) {
	users := 200
	latency := func(nodes, friends int) float64 {
		f := newFixtureVisits(t, repos.SchemaReplicated, nodes, users, 170)
		from, to := window()
		res, err := f.engine.Run(context.Background(), Spec{
			FriendIDs:  friendRange(1, int64(friends)),
			FromMillis: from, ToMillis: to,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LatencySeconds
	}
	l4small, l4big := latency(4, 40), latency(4, 200)
	l16big := latency(16, 200)
	if l4big <= l4small {
		t.Errorf("more friends must cost more: %g <= %g", l4big, l4small)
	}
	// Rough linearity: 5× the friends should cost 2–8× (fixed costs damp it).
	ratio := l4big / l4small
	if ratio < 2 || ratio > 8 {
		t.Errorf("friend scaling ratio %g outside plausible linear band", ratio)
	}
	if l16big >= l4big {
		t.Errorf("16 nodes (%g) must beat 4 nodes (%g)", l16big, l4big)
	}
}

// TestFigure3Shape asserts the concurrency result: average latency grows
// with concurrent queries and bigger clusters degrade slower.
func TestFigure3Shape(t *testing.T) {
	users := 80
	avgLatency := func(nodes, concurrent int) float64 {
		f := newFixture(t, repos.SchemaReplicated, nodes, users)
		from, to := window()
		specs := make([]Spec, concurrent)
		for i := range specs {
			specs[i] = Spec{
				FriendIDs:  friendRange(1, 60),
				FromMillis: from, ToMillis: to,
			}
		}
		results, err := f.engine.RunConcurrent(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range results {
			sum += r.LatencySeconds
		}
		return sum / float64(len(results))
	}
	a4x4, a4x12 := avgLatency(4, 4), avgLatency(4, 12)
	a16x12 := avgLatency(16, 12)
	if a4x12 <= a4x4 {
		t.Errorf("more concurrency must cost more: %g <= %g", a4x12, a4x4)
	}
	if a16x12 >= a4x12 {
		t.Errorf("16 nodes (%g) must beat 4 nodes (%g) under concurrency", a16x12, a4x12)
	}
}

func TestNonPersonalizedAndTrending(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 30)
	// Give some POIs hotness so the trending ranking is meaningful.
	for i, p := range f.pois[:10] {
		if err := f.poiNew.UpdateHotIn(p.ID, float64(10-i)/10, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	box := workload.GreeceBounds()
	// An empty window is rejected, not silently scanned as full history.
	if _, err := f.engine.Trending(context.Background(), Spec{BBox: &box, Limit: 3}); !errors.Is(err, ErrEmptyWindow) {
		t.Fatalf("empty trending window must fail with ErrEmptyWindow, got %v", err)
	}
	from0, to0 := window()
	// Trending without friends is the view's to answer: with none installed
	// the engine refuses rather than serve the POI table's stored ranking.
	if _, err := f.engine.Trending(context.Background(), Spec{BBox: &box, FromMillis: from0, ToMillis: to0, Limit: 3}); err == nil {
		t.Fatal("friendless trending without a view must fail")
	}
	// With a view it ranks by the window's visit counts, whatever hotness
	// the POI table holds.
	attachView(t, f)
	res, err := f.engine.Trending(context.Background(), Spec{BBox: &box, FromMillis: from0, ToMillis: to0, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	if err := f.visits.ScanAll(func(v model.Visit) bool {
		if v.Time >= from0 && v.Time < to0 {
			counts[v.POI.ID]++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) != 3 {
		t.Fatalf("trending = %+v, want 3 POIs", res.POIs)
	}
	for i, p := range res.POIs {
		if p.Visits != counts[p.POI.ID] {
			t.Errorf("poi %d: trending visits %d, scan %d", p.POI.ID, p.Visits, counts[p.POI.ID])
		}
		if i > 0 && res.POIs[i-1].Visits < p.Visits {
			t.Error("trending must order by visit volume")
		}
	}
	// Trending with friends = personalized hotness path.
	from, to := window()
	res, err = f.engine.Trending(context.Background(), Spec{FriendIDs: friendRange(1, 20), FromMillis: from, ToMillis: to, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) == 0 {
		t.Error("personalized trending returned nothing")
	}
	for i := 1; i < len(res.POIs); i++ {
		if res.POIs[i-1].Visits < res.POIs[i].Visits {
			t.Error("personalized trending must order by visit volume")
		}
	}
}

func TestRunConcurrentValidation(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 10)
	if _, err := f.engine.RunConcurrent(context.Background(), nil); err == nil {
		t.Error("empty batch must fail")
	}
	if _, err := f.engine.Run(context.Background(), Spec{}); err == nil {
		t.Error("invalid spec must fail")
	}
}

func TestRegionTopKApproximation(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 60)
	from, to := window()
	exactSpec := Spec{
		FriendIDs:  friendRange(1, 60),
		FromMillis: from, ToMillis: to,
		OrderBy: ByHotness,
		Limit:   10,
	}
	exact, err := f.engine.Run(context.Background(), exactSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.engine.Run(context.Background(), Spec{FriendIDs: []int64{1}, RegionTopK: -1}); err == nil {
		t.Error("negative top-k must fail")
	}

	// A generous per-region K keeps recall high and ships fewer
	// candidates.
	approxSpec := exactSpec
	approxSpec.RegionTopK = 30
	approx, err := f.engine.Run(context.Background(), approxSpec)
	if err != nil {
		t.Fatal(err)
	}
	if approx.Work.CandidatePOIs >= exact.Work.CandidatePOIs {
		t.Errorf("top-k must ship fewer candidates: %d vs %d", approx.Work.CandidatePOIs, exact.Work.CandidatePOIs)
	}
	if approx.LatencySeconds >= exact.LatencySeconds {
		t.Errorf("top-k must be faster: %g vs %g", approx.LatencySeconds, exact.LatencySeconds)
	}
	exactIDs := map[int64]bool{}
	for _, s := range exact.POIs {
		exactIDs[s.POI.ID] = true
	}
	hits := 0
	for _, s := range approx.POIs {
		if exactIDs[s.POI.ID] {
			hits++
		}
	}
	recall := float64(hits) / float64(len(exact.POIs))
	if recall < 0.7 {
		t.Errorf("recall@10 with K=30 per region = %.2f; approximation too lossy", recall)
	}
	// K=1 is aggressively lossy but must still return valid, sorted
	// results without error.
	tiny := exactSpec
	tiny.RegionTopK = 1
	res, err := f.engine.Run(context.Background(), tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.POIs); i++ {
		if res.POIs[i-1].Visits < res.POIs[i].Visits {
			t.Error("approximate results must still be sorted")
		}
	}
}
