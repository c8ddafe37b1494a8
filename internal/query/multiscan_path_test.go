package query

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"modissense/internal/cluster"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// oracleAgg is a region aggregate as the tests state it: the sums, the
// document of the POI's first matching row in the region, and the wire
// estimate of that document.
type oracleAgg struct {
	agg  poiAgg
	wire int64
}

// oracleOutput is a region's output as the tests compare it.
type oracleOutput struct {
	aggs []oracleAgg
	work cluster.CoprocessorWork
}

// oracleRegion is the reference the coprocessor is tested against, sharing
// nothing with it above the store's scan loop: the pre-kernel read shape
// (one scan per friend instead of one multi-range scan per region, routed
// by comparing the friend's row range with the region's bounds), the
// pre-view aggregation (a full repos.DecodeVisit of every row, predicates on
// the decoded document) and the document-based wire estimate. Aggregates
// come in POI-id order, or in rank order when RegionTopK cut them (cut).
func oracleRegion(t *testing.T, cp *visitsCoprocessor, r *kvstore.Region) (out *oracleOutput, cut bool) {
	t.Helper()
	out = &oracleOutput{}
	aggs := map[int64]*poiAgg{}
	end := r.EndKey()
	for _, friend := range sortedDistinctFriends(cp.spec.FriendIDs) {
		start, stop := repos.VisitScanBounds(friend, cp.spec.FromMillis, cp.spec.ToMillis)
		if stop <= r.StartKey || end != "" && start >= end {
			continue
		}
		out.work.Friends++
		// The region's store holds the region's rows only, so the unclipped
		// range reads exactly them.
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
				a = &poiAgg{poi: &v.POI}
				aggs[v.POI.ID] = a
			}
			a.gradeUnits += model.GradeUnits(v.Grade)
			a.visits++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range aggs {
		wire := 48 + len(a.poi.Name)
		for _, k := range a.poi.Keywords {
			wire += len(k) + 3
		}
		out.aggs = append(out.aggs, oracleAgg{agg: *a, wire: int64(wire)})
	}
	if k := cp.spec.RegionTopK; k > 0 && len(out.aggs) > k {
		order := cp.spec.orderOrDefault()
		sort.Slice(out.aggs, func(i, j int) bool { return aggLess(order, &out.aggs[i].agg, &out.aggs[j].agg) })
		out.aggs, cut = out.aggs[:k], true
	} else {
		sortByID(out.aggs)
	}
	out.work.CandidatePOIs = len(out.aggs)
	return out, cut
}

func sortByID(aggs []oracleAgg) {
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].agg.poi.ID < aggs[j].agg.poi.ID })
}

// decodeRegionOutput states a coprocessor's output the way oracleRegion
// does: each aggregate's document decoded from its kept payload, in POI-id
// order unless the region's top-k cut ranked them (cut says whether it did).
func decodeRegionOutput(t *testing.T, got *regionOutput, cut bool) *oracleOutput {
	t.Helper()
	out := &oracleOutput{work: got.work}
	for _, a := range got.aggs {
		v, err := model.DecodeVisitBinary(a.payload)
		if err != nil {
			t.Fatalf("kept payload of POI %d does not decode: %v", a.id, err)
		}
		if v.POI.ID != a.id {
			t.Fatalf("aggregate of POI %d kept a payload of POI %d", a.id, v.POI.ID)
		}
		out.aggs = append(out.aggs, oracleAgg{agg: poiAgg{poi: &v.POI, gradeUnits: a.gradeUnits, visits: a.visits}, wire: a.wire})
	}
	if !cut {
		sortByID(out.aggs)
	}
	return out
}

// requireRegionsMatchOracle runs the coprocessor on every region of the
// table and requires its output — aggregates, their documents and wire
// estimates, the cut's order, work counts — to equal the oracle's.
func requireRegionsMatchOracle(t *testing.T, label string, visits *repos.VisitsRepo, spec Spec) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	friends := sortedDistinctFriends(spec.FriendIDs)
	cp := &visitsCoprocessor{spec: &spec, schema: visits.Schema(), ranges: friendRanges(friends, spec.FromMillis, spec.ToMillis)}
	for _, r := range visits.Table().Regions() {
		out, err := cp.runRegion(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		want, cut := oracleRegion(t, cp, r)
		// rankKey.less is a strict total order, so a cut ranks its
		// aggregates identically whatever order they were built in.
		got := decodeRegionOutput(t, out, cut)
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

// keyedPayload interns v's document and returns the keyed row payload that
// names it.
func keyedPayload(t testing.TB, v *model.Visit) []byte {
	t.Helper()
	_, hash, err := model.InternPOI(&v.POI)
	if err != nil {
		t.Fatal(err)
	}
	return model.EncodeVisitBinaryKeyed(v, hash)
}

// keyedV4Payload rewrites a keyed payload in the deleted layout 0x04: its
// hash and grade, then v's POI id as a varint and network length-prefixed.
func keyedV4Payload(keyed []byte, v *model.Visit) []byte {
	b := append([]byte{0x04, keyed[1]}, keyed[2:18]...)
	b = binary.AppendVarint(b, v.POI.ID)
	b = binary.AppendUvarint(b, uint64(len(v.Network)))
	return append(b, v.Network...)
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
// binary rows of the repository's schema, normalized rows under either
// schema, two documents for one POI id (the first row's wins), and payloads
// the codec rejects — JSON visit documents whole and broken and rows of the
// deleted embedded-document and varint keyed layouts (skipped like any
// corrupt row), truncated keyed rows, a bad version, trailing bytes, an
// unknown network code, empty.
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
		keyed := keyedPayload(t, &v)
		switch rng.Intn(14) {
		case 0:
			raw(model.EncodeJSON(v)) // a replicated JSON document, whatever the schema
		case 1:
			raw([]byte(fmt.Sprintf(`{"user_id":%d,"time":%d,"grade":%g,"network":"twitter","poi_id":%d}`, v.UserID, v.Time, v.Grade, v.POI.ID)))
		case 2:
			raw(model.EncodeVisitBinary(&v)) // the deleted embedded-document layout
		case 3:
			raw(model.EncodeVisitBinaryNormalized(&v))
		case 4:
			raw(keyed[:1+rng.Intn(len(keyed)-1)])
		case 5:
			bad := append([]byte(nil), keyed...)
			bad[1] = 9
			raw(bad)
		case 6:
			raw(append(append([]byte(nil), keyed...), 0))
		case 7:
			raw([]byte(`{"user_id":`))
		case 8:
			raw(nil)
		case 9:
			raw(keyedV4Payload(keyed, &v)) // the deleted varint keyed layout
		case 10:
			bad := append([]byte(nil), keyed...)
			bad[len(bad)-1] = 0x80 // an unknown network code
			raw(bad)
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
// keyed row whose POI the region has already aggregated costs no
// allocation, and one whose POI is new to the region costs none once the
// slot map and the aggregate slice have grown — it keeps the row's payload
// and points at the shared document, copying none.
func TestVisitRowAllocatesNothingForSeenPOI(t *testing.T) {
	v := model.Visit{UserID: 3, Time: 1, Grade: 4, Network: "twitter", POI: model.POI{
		ID: 9, Name: "plaka-cafe", Lat: 37.97, Lon: 23.73, Keywords: []string{"cafe", "view"},
	}}
	row := kvstore.RowResult{Row: "r", Cells: []kvstore.Cell{{Qualifier: repos.VisitQualifier, Value: keyedPayload(t, &v)}}}
	spec := Spec{BBox: &geo.Rect{MinLat: 37, MinLon: 23, MaxLat: 38, MaxLon: 24}, Keyword: "view"}
	cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated}
	agg := newRegionAggregator(cp, takeScratch())
	agg.visitRow(row)
	if allocs := testing.AllocsPerRun(100, func() { agg.visitRow(row) }); allocs != 0 {
		t.Errorf("visitRow allocated %v times for an already aggregated POI, want 0", allocs)
	}
	if out := agg.finish(); out.work.VisitsMatched != 102 || len(out.aggs) != 1 || out.aggs[0].visits != 102 {
		t.Errorf("rows were not aggregated: %+v", out)
	}

	// AllocsPerRun calls the function once more than it is told to.
	const fresh = 100
	rows := make([]kvstore.RowResult, fresh+1)
	for i := range rows {
		v.POI.ID = int64(1000 + i)
		rows[i] = kvstore.RowResult{Row: "r", Cells: []kvstore.Cell{{Qualifier: repos.VisitQualifier, Value: keyedPayload(t, &v)}}}
	}
	// Warm a scratch the way queries do: aggregate the rows on it, then
	// reset it as a release does, keeping what it grew to.
	s := takeScratch()
	warm := newRegionAggregator(cp, s)
	for _, row := range rows {
		warm.visitRow(row)
	}
	s.reset(warm.finish().aggs)
	agg = newRegionAggregator(cp, s)
	next := 0
	if allocs := testing.AllocsPerRun(fresh, func() { agg.visitRow(rows[next]); next++ }); allocs != 0 {
		t.Errorf("visitRow allocated %v times for a POI new to the region, want 0", allocs)
	}
	if out := agg.finish(); len(out.aggs) != len(rows) || out.aggs[0].visits != 1 {
		t.Errorf("new POIs were not aggregated: %d aggregates", len(out.aggs))
	}
}

// TestSplitInsideAUsersRowsReadsBothHalves: a split at a key inside one
// user's visit rows leaves that friend's window in two regions, and the
// coprocessor must read both halves — matching the full-decode oracle in
// every region, and the answer the table gave before the split. Routing a
// friend by their key prefix read the lower half only.
func TestSplitInsideAUsersRowsReadsBothHalves(t *testing.T) {
	ctx := context.Background()
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		f := newFixture(t, schema, 2, 40)
		from, to := window()
		spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, OrderBy: ByHotness, NoCache: true}
		before, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		start, stop := repos.VisitScanBounds(7, from, to)
		if err := f.visits.Table().MultiScanCtx(ctx, []kvstore.ScanRange{{Start: start, Stop: stop}}, 0, func(row kvstore.RowResult) bool {
			keys = append(keys, row.Row)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(keys) < 2 {
			t.Fatalf("user 7 has %d visits in the window, want at least 2", len(keys))
		}
		if err := f.visits.Table().SplitRegion(keys[len(keys)/2]); err != nil {
			t.Fatal(err)
		}
		requireRegionsMatchOracle(t, fmt.Sprintf("schema %v", schema), f.visits, spec)
		after, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after.POIs, before.POIs) {
			t.Errorf("schema %v: the split changed the answer:\ngot  %+v\nwant %+v", schema, after.POIs, before.POIs)
		}
		if after.Work.RowsScanned != before.Work.RowsScanned || after.Work.Friends != before.Work.Friends+1 {
			t.Errorf("schema %v: work after the split %+v, before %+v; want the same rows and user 7 probed twice", schema, after.Work, before.Work)
		}
	}
}

// TestSplitsInsideTheFirstAndLastFriendsRows: splits inside user 7's visit
// rows and inside user 20's leave a region whose first friend's window
// starts below it and whose last friend's stops above it. Each region's
// ranges must be clamped to its keys — the first starting at the region's
// start key, the last stopping at its end key, none reaching outside — and
// the coprocessor must match the full-decode oracle in every region and the
// answer the table gave before the splits, with users 7 and 20 probed twice.
func TestSplitsInsideTheFirstAndLastFriendsRows(t *testing.T) {
	ctx := context.Background()
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		f := newFixtureRegions(t, schema, 1, 1, 40, 20)
		from, to := window()
		spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, OrderBy: ByInterest, NoCache: true}
		before, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, user := range []int64{7, 20} {
			var keys []string
			start, stop := repos.VisitScanBounds(user, from, to)
			if err := f.visits.Table().MultiScanCtx(ctx, []kvstore.ScanRange{{Start: start, Stop: stop}}, 0, func(row kvstore.RowResult) bool {
				keys = append(keys, row.Row)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(keys) < 2 {
				t.Fatalf("user %d has %d visits in the window, want at least 2", user, len(keys))
			}
			if err := f.visits.Table().SplitRegion(keys[len(keys)/2]); err != nil {
				t.Fatal(err)
			}
		}
		regions := f.visits.Table().Regions()
		if len(regions) != 3 {
			t.Fatalf("%d regions after two splits, want 3", len(regions))
		}
		ranges := friendRanges(sortedDistinctFriends(spec.FriendIDs), from, to)
		for i, r := range regions {
			clipped := r.ClipRanges(&ranges)
			n := clipped.Len()
			if n == 0 {
				t.Fatalf("schema %v: region %d serves no friend", schema, i)
			}
			first := string(clipped.AppendStart(nil, 0))
			last := string(clipped.AppendStop(nil, n-1))
			if first < r.StartKey || r.EndKey() != "" && last > r.EndKey() {
				t.Errorf("schema %v: region %d [%q, %q) serves ranges from %q to %q", schema, i, r.StartKey, r.EndKey(), first, last)
			}
			if i == 1 && (n != 14 || first != r.StartKey || last != r.EndKey()) {
				t.Errorf("schema %v: the middle region [%q, %q) serves %d ranges from %q to %q; want users 7 to 20, clamped to its keys", schema, r.StartKey, r.EndKey(), n, first, last)
			}
		}
		requireRegionsMatchOracle(t, fmt.Sprintf("schema %v", schema), f.visits, spec)
		after, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(after.POIs, before.POIs) {
			t.Errorf("schema %v: the splits changed the answer:\ngot  %+v\nwant %+v", schema, after.POIs, before.POIs)
		}
		if after.Work.RowsScanned != before.Work.RowsScanned || after.Work.Friends != before.Work.Friends+2 {
			t.Errorf("schema %v: work after the splits %+v, before %+v; want the same rows and users 7 and 20 probed twice", schema, after.Work, before.Work)
		}
	}
}

// TestVisitRowSkipsNonBinaryPayload: a payload without a binary tag — here a
// JSON visit document, which readers once decoded — is accounted as scanned
// and contributes nothing.
func TestVisitRowSkipsNonBinaryPayload(t *testing.T) {
	v := model.Visit{UserID: 3, Time: 1, Grade: 4, Network: "twitter", POI: model.POI{ID: 9, Name: "plaka-cafe"}}
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		agg := newRegionAggregator(&visitsCoprocessor{spec: &Spec{}, schema: schema}, takeScratch())
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
