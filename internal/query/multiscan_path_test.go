package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// oracleRegion is the reference the coprocessor is tested against, sharing
// nothing with it above the store's scan loop: the pre-kernel read shape
// (one scan per friend instead of one multi-range scan per region) and the
// pre-view aggregation (a full repos.DecodeVisit of every row, predicates
// on the decoded document).
func oracleRegion(t *testing.T, cp *visitsCoprocessor, r *kvstore.Region) *regionOutput {
	t.Helper()
	out := &regionOutput{}
	aggs := map[int64]*poiAgg{}
	for _, friend := range cp.friends {
		if !r.Contains(repos.UserKeyPrefix(friend)) {
			continue
		}
		out.work.Friends++
		start, stop := repos.VisitScanBounds(friend, cp.spec.FromMillis, cp.spec.ToMillis)
		err := r.Store().MultiScanCtx(context.Background(), []kvstore.ScanRange{{Start: start, Stop: stop}}, 0, func(row kvstore.RowResult) bool {
			raw, ok := row.Get(repos.VisitQualifier)
			if !ok {
				return true
			}
			out.work.RowsScanned++
			v, err := repos.DecodeVisit(cp.schema, raw)
			if err != nil {
				return true
			}
			if cp.schema == repos.SchemaReplicated && !cp.spec.matchesPOI(&v.POI) {
				return true
			}
			out.work.VisitsMatched++
			a := aggs[v.POI.ID]
			if a == nil {
				a = &poiAgg{poi: v.POI}
				aggs[v.POI.ID] = a
			}
			a.gradeSum += v.Grade
			a.visits++
			a.inexact = a.inexact || v.Grade != math.Trunc(v.Grade)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range aggs {
		out.aggs = append(out.aggs, *a)
	}
	sortAggs(out.aggs, cp.spec.orderOrDefault())
	if k := cp.spec.RegionTopK; k > 0 && len(out.aggs) > k {
		out.aggs = out.aggs[:k]
	}
	out.work.CandidatePOIs = len(out.aggs)
	return out
}

// requireRegionsMatchOracle runs the coprocessor on every region of the
// table and requires its output — aggregates, their order, work counts —
// to equal the oracle's.
func requireRegionsMatchOracle(t *testing.T, label string, visits *repos.VisitsRepo, spec Spec) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cp := &visitsCoprocessor{spec: &spec, schema: visits.Schema(), friends: sortedDistinctFriends(spec.FriendIDs)}
	for _, r := range visits.Table().Regions() {
		got, err := cp.runRegion(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRegion(t, cp, r)
		// aggLess is a strict total order, so equal inputs sort identically
		// whatever order the aggregates were built in.
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s region %d: coprocessor output diverged from the oracle\ngot:  %+v\nwant: %+v", label, r.ID, got, want)
		}
	}
}

// TestMultiRangePathMatchesNScanPath: for random query specs, the
// coprocessor's single multi-range scan per region must produce exactly the
// per-region output of one scan per friend — same aggregates, same work
// counters.
func TestMultiRangePathMatchesNScanPath(t *testing.T) {
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		f := newFixture(t, schema, 4, 120)
		rng := rand.New(rand.NewSource(99))
		from, to := window()
		for trial := 0; trial < 8; trial++ {
			var friends []int64
			for len(friends) < 5+rng.Intn(40) {
				friends = append(friends, 1+rng.Int63n(120))
			}
			span := to - from
			lo := from + rng.Int63n(span/2)
			spec := Spec{
				FriendIDs:  friends,
				FromMillis: lo,
				ToMillis:   lo + rng.Int63n(span/2),
				OrderBy:    ByInterest,
			}
			requireRegionsMatchOracle(t, fmt.Sprintf("schema %v trial %d", schema, trial), f.visits, spec)
		}
	}
}

// putVisitPayload stores payload as the i-th hand-written row of v's user
// and time, bypassing the repository's encoder: how tests write what no
// writer produces (JSON documents, other layouts, garbage). The leading
// 9 keeps these keys clear of the repository's own sequence numbers.
func putVisitPayload(t testing.TB, visits *repos.VisitsRepo, v *model.Visit, i int, payload []byte) {
	t.Helper()
	start, _ := repos.VisitScanBounds(v.UserID, v.Time, v.Time)
	if err := visits.Table().Put(fmt.Sprintf("%s9%05d", start, i), repos.VisitQualifier, v.Time, payload); err != nil {
		t.Fatal(err)
	}
}

// mixedStore fills a small visits table with everything a region can hold:
// binary rows of the repository's schema, binary rows of the other layout,
// two documents for one POI id (the first row's wins), and payloads the codec
// rejects — JSON visit documents whole and broken (not binary, so skipped
// like any corrupt row), truncated binary, a bad version, trailing bytes,
// empty.
func mixedStore(t *testing.T, schema repos.VisitSchema, rng *rand.Rand) *repos.VisitsRepo {
	t.Helper()
	const users = 40
	// Small memtables: each region's rows end up spread over several
	// flushed segments and the memtable.
	opts := kvstore.DefaultStoreOptions()
	opts.FlushThresholdBytes = 16 << 10
	visits, err := repos.NewVisitsRepo(schema, users, 4, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	pois := workload.GenPOIs(rng, 25)
	from, to := window()
	for i := 0; i < 1500; i++ {
		v := model.Visit{
			UserID:  1 + rng.Int63n(users),
			Time:    from + rng.Int63n(to-from),
			Grade:   float64(1 + rng.Intn(5)),
			Network: "twitter",
			POI:     pois[rng.Intn(len(pois))],
		}
		if rng.Intn(10) == 0 {
			// A later crawl saw this POI elsewhere, under other keywords.
			v.POI.Lat += 0.01
			v.POI.Keywords = []string{"moved"}
		}
		raw := func(payload []byte) { putVisitPayload(t, visits, &v, i, payload) }
		full := model.EncodeVisitBinary(&v)
		switch rng.Intn(12) {
		case 0:
			raw(model.EncodeJSON(v)) // a replicated JSON document, whatever the schema
		case 1:
			raw([]byte(fmt.Sprintf(`{"user_id":%d,"time":%d,"grade":%g,"network":"twitter","poi_id":%d}`, v.UserID, v.Time, v.Grade, v.POI.ID)))
		case 2:
			raw(full) // replicated layout, whatever the schema
		case 3:
			raw(model.EncodeVisitBinaryNormalized(&v))
		case 4:
			raw(full[:1+rng.Intn(len(full)-1)])
		case 5:
			bad := append([]byte(nil), full...)
			bad[1] = 9
			raw(bad)
		case 6:
			raw(append(append([]byte(nil), full...), 0))
		case 7:
			raw([]byte(`{"user_id":`))
		case 8:
			raw(nil)
		default:
			if err := visits.Store(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range visits.Table().Regions() {
		if err := r.Store().WaitMaintenance(); err != nil {
			t.Fatal(err)
		}
		if r.Store().Stats().Segments == 0 {
			t.Fatalf("region %d flushed no segment", r.ID)
		}
	}
	return visits
}

// TestCoprocessorMatchesFullDecodeOracle is the late-materializing
// kernel's property: over stores mixing binary and undecodable rows (JSON
// documents among them), under both schemas and every predicate shape, the
// view-based coprocessor
// returns exactly what decoding every row in full returns — the same
// first-row-wins documents, sums, order, skips and work counts.
func TestCoprocessorMatchesFullDecodeOracle(t *testing.T) {
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		rng := rand.New(rand.NewSource(2015 + int64(schema)))
		visits := mixedStore(t, schema, rng)
		from, to := window()
		boxes := []*geo.Rect{nil, {MinLat: 37.8, MinLon: 23.55, MaxLat: 38.15, MaxLon: 23.9}, {MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}}
		for trial := 0; trial < 40; trial++ {
			spec := Spec{
				FromMillis: from,
				ToMillis:   from + rng.Int63n(to-from),
				BBox:       boxes[rng.Intn(len(boxes))],
				OrderBy:    []OrderBy{ByInterest, ByHotness}[rng.Intn(2)],
				RegionTopK: []int{0, 0, 5}[rng.Intn(3)],
			}
			for len(spec.FriendIDs) < 1+rng.Intn(40) {
				spec.FriendIDs = append(spec.FriendIDs, 1+rng.Int63n(40))
			}
			switch rng.Intn(4) {
			case 0:
				spec.Keyword = "moved"
			case 1:
				spec.Keyword = []string{"food", "restaurant", "culture", "nightlife"}[rng.Intn(4)]
			case 2:
				spec.Keyword = "no-such-keyword"
			}
			requireRegionsMatchOracle(t, fmt.Sprintf("schema %v trial %d", schema, trial), visits, spec)
		}
	}
}

// TestVisitRowAllocatesNothingForSeenPOI guards the point of the view: a
// row whose POI the region has already aggregated costs no allocation.
func TestVisitRowAllocatesNothingForSeenPOI(t *testing.T) {
	v := model.Visit{UserID: 3, Time: 1, Grade: 4, Network: "twitter", POI: model.POI{
		ID: 9, Name: "plaka-cafe", Lat: 37.97, Lon: 23.73, Keywords: []string{"cafe", "view"},
	}}
	row := kvstore.RowResult{Row: "r", Cells: []kvstore.Cell{{Qualifier: repos.VisitQualifier, Value: model.EncodeVisitBinary(&v)}}}
	spec := Spec{BBox: &geo.Rect{MinLat: 37, MinLon: 23, MaxLat: 38, MaxLon: 24}, Keyword: "view"}
	agg := newRegionAggregator(&visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated})
	agg.visitRow(row)
	if allocs := testing.AllocsPerRun(100, func() { agg.visitRow(row) }); allocs != 0 {
		t.Errorf("visitRow allocated %v times for an already aggregated POI, want 0", allocs)
	}
	if out := agg.finish(); out.work.VisitsMatched != 102 || len(out.aggs) != 1 || out.aggs[0].visits != 102 {
		t.Errorf("rows were not aggregated: %+v", out)
	}
}

// TestVisitRowSkipsNonBinaryPayload: a payload without a binary tag — here a
// JSON visit document, which readers once decoded — is accounted as scanned
// and contributes nothing.
func TestVisitRowSkipsNonBinaryPayload(t *testing.T) {
	v := model.Visit{UserID: 3, Time: 1, Grade: 4, Network: "twitter", POI: model.POI{ID: 9, Name: "plaka-cafe"}}
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		agg := newRegionAggregator(&visitsCoprocessor{spec: &Spec{}, schema: schema})
		for _, payload := range [][]byte{model.EncodeJSON(v), []byte(`{"user_id":3,"time":1,"grade":4,"network":"twitter","poi_id":9}`)} {
			agg.visitRow(kvstore.RowResult{Row: "r", Cells: []kvstore.Cell{{Qualifier: repos.VisitQualifier, Value: payload}}})
		}
		if out := agg.finish(); out.work.RowsScanned != 2 || out.work.VisitsMatched != 0 || len(out.aggs) != 0 {
			t.Errorf("schema %v: JSON rows must be scanned and skipped: %+v", schema, out)
		}
	}
}

// TestSortedDistinctFriends covers the dedup the multi-range contract needs.
func TestSortedDistinctFriends(t *testing.T) {
	got := sortedDistinctFriends([]int64{5, 1, 5, 3, 1, 1})
	if !reflect.DeepEqual(got, []int64{1, 3, 5}) {
		t.Errorf("sortedDistinctFriends = %v", got)
	}
	if got := sortedDistinctFriends(nil); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
}

// TestRunConcurrentDuplicateFriends checks duplicate friend ids in a spec
// count each friend's visits once and execute without range-overlap errors.
func TestRunConcurrentDuplicateFriends(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	base := Spec{FriendIDs: friendRange(1, 20), FromMillis: from, ToMillis: to, OrderBy: ByInterest}
	dup := base
	dup.FriendIDs = append(append([]int64(nil), base.FriendIDs...), base.FriendIDs...)
	want, err := f.engine.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.engine.Run(context.Background(), dup)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.POIs, want.POIs) {
		t.Errorf("duplicate friends changed results:\ngot  %+v\nwant %+v", got.POIs, want.POIs)
	}
}
