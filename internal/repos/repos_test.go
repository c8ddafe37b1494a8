package repos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"modissense/internal/faultinject"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/trajectory"
	"modissense/internal/workload"
)

func TestKeyEncodingOrderAndRoundTrip(t *testing.T) {
	// Lexicographic order of encoded keys must equal numeric order.
	k1 := visitRowKey(5, 1000, 1)
	k2 := visitRowKey(5, 1001, 0)
	k3 := visitRowKey(6, 0, 0)
	k4 := visitRowKey(256, 0, 0)
	if !(k1 < k2 && k2 < k3 && k3 < k4) {
		t.Errorf("key order broken: %q %q %q %q", k1, k2, k3, k4)
	}
	u, ts, seq, ok := parseVisitRowKey(visitRowKey(123456, 98765432100, 42))
	if !ok || u != 123456 || ts != 98765432100 || seq != 42 {
		t.Errorf("round trip = %d %d %d %v", u, ts, seq, ok)
	}
	for _, bad := range []string{"garbage", "u000000000007|t0000000000042|000001", k1[:19], k1 + "\x00"} {
		if _, _, _, ok := parseVisitRowKey(bad); ok {
			t.Errorf("malformed key %q parsed", bad)
		}
	}
	// Scan bounds are inclusive of from and to.
	start, stop := VisitScanBounds(5, 1000, 2000)
	if !(start <= visitRowKey(5, 1000, 0) && visitRowKey(5, 2000, math.MaxUint32) < stop) {
		t.Error("scan bounds must cover [from,to]")
	}
	if visitRowKey(5, 2001, 0) < stop {
		t.Error("scan bounds must exclude times past to")
	}
	// The append forms write VisitScanBounds' bounds and allocate nothing
	// into a buffer with room.
	for _, user := range []int64{1, 42, math.MaxInt64} {
		for _, w := range [][2]int64{{0, 5}, {-9, 1e13}, {math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MaxInt64}} {
			start, stop := VisitScanBounds(user, w[0], w[1])
			buf := make([]byte, 0, 64)
			if got := string(AppendVisitScanStart(buf, user, w[0])); got != start {
				t.Errorf("AppendVisitScanStart(%d, %d) = %q, want %q", user, w[0], got, start)
			}
			if got := string(AppendVisitScanStop(buf, user, w[1])); got != stop {
				t.Errorf("AppendVisitScanStop(%d, %d) = %q, want %q", user, w[1], got, stop)
			}
		}
	}
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() {
		buf = AppendVisitScanStop(AppendVisitScanStart(buf[:0], 42, 1000), 42, 2000)
	}); allocs != 0 {
		t.Errorf("writing a range's bounds allocated %v times", allocs)
	}
}

func TestUserSplitKeys(t *testing.T) {
	keys := userSplitKeys(1000, 4)
	if len(keys) != 3 {
		t.Fatalf("got %d split keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Error("split keys must be strictly increasing")
		}
	}
	if got := userSplitKeys(1000, 1); got != nil {
		t.Errorf("single region needs no splits, got %v", got)
	}
	// Tiny population with many regions deduplicates.
	small := userSplitKeys(2, 8)
	for i := 1; i < len(small); i++ {
		if small[i] == small[i-1] {
			t.Error("duplicate split keys must be removed")
		}
	}
}

func newTestPOIRepo(t testing.TB) (*POIRepo, []model.POI) {
	t.Helper()
	repo := NewPOIRepo()
	pois := workload.GenPOIs(rand.New(rand.NewSource(3)), 500)
	for _, p := range pois {
		if _, err := repo.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	return repo, pois
}

func TestPOIRepoInsertGet(t *testing.T) {
	repo, pois := newTestPOIRepo(t)
	if repo.Len() != len(pois) {
		t.Fatalf("len = %d", repo.Len())
	}
	got, ok := repo.Get(pois[7].ID)
	if !ok || got.Name != pois[7].Name || len(got.Keywords) == 0 {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	// Auto-assigned ids.
	created, err := repo.Insert(model.POI{Name: "event-1", Lat: 37.9, Lon: 23.7, Keywords: []string{"event"}})
	if err != nil {
		t.Fatal(err)
	}
	if created.ID <= 1_000_000_000 {
		t.Errorf("auto id = %d, want above the reserved range start", created.ID)
	}
	// ResolvePOI implements the collector interface.
	p, ok := repo.ResolvePOI(model.Checkin{POIID: pois[3].ID})
	if !ok || p.ID != pois[3].ID {
		t.Error("ResolvePOI broken")
	}
}

func TestPOIRepoUpdateHotIn(t *testing.T) {
	repo, pois := newTestPOIRepo(t)
	if err := repo.UpdateHotIn(pois[0].ID, 0.99, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := repo.UpdateHotIn(pois[1].ID, 0.5, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := repo.UpdateHotIn(999999, 1, 1); err == nil {
		t.Error("missing POI must fail")
	}
	for _, c := range []struct {
		id                int64
		hotness, interest float64
	}{{pois[0].ID, 0.99, 0.7}, {pois[1].ID, 0.5, 0.9}, {pois[2].ID, 0, 0}} {
		if got, ok := repo.Get(c.id); !ok || got.Hotness != c.hotness || got.Interest != c.interest {
			t.Errorf("POI %d after UpdateHotIn = %+v, want hotness %g interest %g", c.id, got, c.hotness, c.interest)
		}
	}
}

// scanUser streams one user's visits within [fromMillis, toMillis] through
// the key range a coprocessor scans for that user.
func scanUser(r *VisitsRepo, userID, fromMillis, toMillis int64, fn func(model.Visit) bool) error {
	start, stop := VisitScanBounds(userID, fromMillis, toMillis)
	return r.scan(kvstore.ScanOptions{StartRow: start, StopRow: stop}, fn)
}

func newTestVisitsRepo(t testing.TB, schema VisitSchema) *VisitsRepo {
	t.Helper()
	repo, err := NewVisitsRepo(schema, 1000, 8, 4, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func TestVisitsRepoStoreScan(t *testing.T) {
	for _, schema := range []VisitSchema{SchemaReplicated, SchemaNormalized} {
		t.Run(schema.String(), func(t *testing.T) {
			repo := newTestVisitsRepo(t, schema)
			poi := model.POI{ID: 9, Name: "taverna-9", Lat: 37.9, Lon: 23.7, Keywords: []string{"restaurant"}}
			base := time.Date(2015, 5, 1, 12, 0, 0, 0, time.UTC)
			for i := 0; i < 10; i++ {
				v := model.Visit{
					UserID: 42, Time: model.Millis(base.Add(time.Duration(i) * time.Hour)),
					Grade: 4, Network: "facebook", POI: poi,
				}
				if err := repo.Store(v); err != nil {
					t.Fatal(err)
				}
			}
			// Another user's visits must not leak into scans.
			if err := repo.Store(model.Visit{UserID: 43, Time: model.Millis(base), Grade: 1, POI: poi}); err != nil {
				t.Fatal(err)
			}
			var got []model.Visit
			err := scanUser(repo, 42, model.Millis(base.Add(2*time.Hour)), model.Millis(base.Add(5*time.Hour)), func(v model.Visit) bool {
				got = append(got, v)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 4 {
				t.Fatalf("scan window returned %d visits, want 4", len(got))
			}
			for i, v := range got {
				if v.UserID != 42 {
					t.Fatal("foreign visit leaked into scan")
				}
				if i > 0 && v.Time < got[i-1].Time {
					t.Fatal("scan not time-ordered")
				}
				if schema == SchemaReplicated {
					if v.POI.Name != "taverna-9" {
						t.Error("replicated schema must carry POI info")
					}
				} else {
					if v.POI.Name != "" || v.POI.ID != 9 {
						t.Errorf("normalized schema must carry only the POI id: %+v", v.POI)
					}
				}
			}
			total := 0
			if err := repo.ScanAll(func(model.Visit) bool { total++; return true }); err != nil {
				t.Fatal(err)
			}
			if total != 11 {
				t.Errorf("ScanAll saw %d visits, want 11", total)
			}
		})
	}
}

func TestVisitsRepoValidation(t *testing.T) {
	repo := newTestVisitsRepo(t, SchemaReplicated)
	if err := repo.Store(model.Visit{UserID: 0, POI: model.POI{ID: 1}}); err == nil {
		t.Error("invalid user must fail")
	}
	if err := repo.Store(model.Visit{UserID: 1}); err == nil {
		t.Error("missing POI must fail")
	}
	if _, err := NewVisitsRepo(SchemaReplicated, 0, 4, 4, kvstore.DefaultStoreOptions()); err == nil {
		t.Error("bad maxUser must fail")
	}
	if _, err := NewVisitsRepo(SchemaReplicated, 100, 0, 4, kvstore.DefaultStoreOptions()); err == nil {
		t.Error("bad regions must fail")
	}
	if _, err := wrapVisitsTable(SchemaReplicated, nil, nil); err == nil {
		t.Error("nil table must fail")
	}
}

func TestVisitsRepoRegionDistribution(t *testing.T) {
	repo := newTestVisitsRepo(t, SchemaReplicated)
	if got := repo.Table().NumRegions(); got != 8 {
		t.Fatalf("regions = %d, want 8", got)
	}
	poi := model.POI{ID: 1, Name: "x"}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		uid := int64(rng.Intn(1000) + 1)
		if err := repo.Store(model.Visit{UserID: uid, Time: int64(i), Grade: 3, POI: poi}); err != nil {
			t.Fatal(err)
		}
	}
	// Every region should hold some data (uniform users over 8 ranges).
	for _, region := range repo.Table().Regions() {
		count := 0
		err := region.Store().MultiScanCtx(context.Background(), []kvstore.ScanRange{{}}, 0, func(kvstore.RowResult) bool { count++; return true })
		if err != nil {
			t.Fatal(err)
		}
		if count == 0 {
			t.Errorf("region [%q,%q) is empty", region.StartKey, region.EndKey())
		}
	}
}

// storedFriends decodes the newest friend list stored for the user on one
// network ("" = all networks).
func storedFriends(t *testing.T, r *SocialInfoRepo, userID int64, network string) []model.Friend {
	t.Helper()
	var cells []kvstore.Cell
	key := idKey(userID)
	if err := r.table.Scan(kvstore.ScanOptions{StartRow: key, StopRow: key + "\x00"}, func(row kvstore.RowResult) bool {
		cells = append(cells, row.Cells...)
		return false
	}); err != nil {
		t.Fatal(err)
	}
	var out []model.Friend
	for _, cell := range cells {
		if network != "" && cell.Qualifier != network {
			continue
		}
		var fs []model.Friend
		if err := model.DecodeJSON(cell.Value, &fs); err != nil {
			t.Fatal(err)
		}
		out = append(out, fs...)
	}
	return out
}

func TestSocialInfoRepo(t *testing.T) {
	repo, err := NewSocialInfoRepo(1000, 4, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	friends := []model.Friend{
		{ID: 1, Name: "a", Network: "facebook", Avatar: "u1"},
		{ID: 2, Name: "b", Network: "facebook", Avatar: "u2"},
		{ID: 3, Name: "c", Network: "twitter", Avatar: "u3"},
	}
	if err := repo.StoreFriends(42, friends); err != nil {
		t.Fatal(err)
	}
	fb := storedFriends(t, repo, 42, "facebook")
	if len(fb) != 2 {
		t.Errorf("facebook friends = %d, want 2", len(fb))
	}
	all := storedFriends(t, repo, 42, "")
	if len(all) != 3 {
		t.Errorf("all friends = %d, want 3", len(all))
	}
	// Re-storing replaces (newest version wins).
	if err := repo.StoreFriends(42, friends[:1]); err != nil {
		t.Fatal(err)
	}
	fb = storedFriends(t, repo, 42, "facebook")
	if len(fb) != 1 {
		t.Errorf("after refresh facebook friends = %d, want 1", len(fb))
	}
	if err := repo.StoreFriends(0, friends); err == nil {
		t.Error("invalid user must fail")
	}
	if none := storedFriends(t, repo, 999, ""); len(none) != 0 {
		t.Errorf("unknown user friends = %v", none)
	}
}

func TestTextRepo(t *testing.T) {
	repo, err := NewTextRepo(10000, 4, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		c := model.Comment{
			UserID: 7, POIID: 99, Time: model.Millis(base.Add(time.Duration(i) * time.Hour)),
			Text: fmt.Sprintf("comment %d", i), Grade: 3.5,
		}
		if err := repo.StoreComment(c); err != nil {
			t.Fatal(err)
		}
	}
	// Different user and different POI must not appear.
	if err := repo.StoreComment(model.Comment{UserID: 8, POIID: 99, Time: model.Millis(base), Text: "other user"}); err != nil {
		t.Fatal(err)
	}
	if err := repo.StoreComment(model.Comment{UserID: 7, POIID: 100, Time: model.Millis(base), Text: "other poi"}); err != nil {
		t.Fatal(err)
	}
	got, err := repo.Comments(99, 7, model.Millis(base.Add(time.Hour)), model.Millis(base.Add(3*time.Hour)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("comments = %d, want 3", len(got))
	}
	for i, c := range got {
		if c.UserID != 7 || c.POIID != 99 {
			t.Fatal("scan leaked other keys")
		}
		if i > 0 && c.Time < got[i-1].Time {
			t.Fatal("comments not time-ordered")
		}
	}
	if all, err := repo.Comments(99, 7, math.MinInt64, math.MaxInt64); err != nil || len(all) != 5 {
		t.Errorf("full-range comments = %d, %v; want 5", len(all), err)
	}
	if err := repo.StoreComment(model.Comment{}); err == nil {
		t.Error("invalid comment must fail")
	}
}

func TestGPSRepo(t *testing.T) {
	repo, err := NewGPSRepo(1000, 4, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 5, 1, 8, 0, 0, 0, time.UTC)
	var fixes []model.GPSFix
	for i := 0; i < 20; i++ {
		fixes = append(fixes, model.GPSFix{
			UserID: 5, Lat: 37.9 + float64(i)*0.001, Lon: 23.7, Time: model.Millis(base.Add(time.Duration(i) * time.Minute)),
		})
	}
	if err := repo.PushBatch(fixes); err != nil {
		t.Fatal(err)
	}
	if err := repo.PushBatch([]model.GPSFix{{UserID: 6, Lat: 38, Lon: 23, Time: model.Millis(base)}}); err != nil {
		t.Fatal(err)
	}
	n, err := repo.Len()
	if err != nil || n != 21 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	var got []model.GPSFix
	err = repo.ScanUser(5, model.Millis(base.Add(5*time.Minute)), model.Millis(base.Add(10*time.Minute)), func(f model.GPSFix) bool {
		got = append(got, f)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Errorf("windowed scan = %d fixes, want 6", len(got))
	}
	// The full range ends at math.MaxInt64, where no time follows: the
	// scan stops at user 6's rows.
	got = got[:0]
	if err := repo.ScanUser(5, math.MinInt64, math.MaxInt64, func(f model.GPSFix) bool {
		got = append(got, f)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fixes) {
		t.Errorf("full-range scan read %+v, want user 5's %d fixes", got, len(fixes))
	}
	if err := repo.PushBatch([]model.GPSFix{{UserID: 0}}); err == nil {
		t.Error("invalid user must fail")
	}
	// A batch is validated before anything is written: one bad fix in the
	// middle rejects the whole call.
	bad := []model.GPSFix{{UserID: 7, Time: 1}, {UserID: 0, Time: 2}, {UserID: 7, Time: 3}}
	if err := repo.PushBatch(bad); err == nil {
		t.Error("batch with an invalid user must fail")
	}
	if n, err := repo.Len(); err != nil || n != 21 {
		t.Errorf("Len = %d, %v after a rejected batch, want 21", n, err)
	}
	if err := repo.PushBatch(nil); err != nil {
		t.Errorf("empty batch = %v, want nil", err)
	}
}

// TestVisitsStoreIsStoreBatchOfOne: a single Store reaches the table and the
// store hooks exactly as a one-element StoreBatch does — announced before the
// write, settled as committed after it — and an invalid visit reaches
// neither.
func TestVisitsStoreIsStoreBatchOfOne(t *testing.T) {
	repo, err := NewVisitsRepo(SchemaReplicated, 100, 4, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	var hooked [][]model.Visit
	announced := 0
	repo.SetOnStore(
		func(vs []model.Visit) {
			// The announcement precedes the write: the table holds only the
			// batches already settled.
			if n := countVisits(t, repo); n != len(hooked) {
				t.Errorf("announce of batch %d found %d visits in the table", announced, n)
			}
			announced++
		},
		func(vs []model.Visit, committed bool) {
			if !committed {
				t.Error("a write the table accepted settled as not committed")
			}
			hooked = append(hooked, vs)
		})
	v := model.Visit{UserID: 9, Time: 1000, Grade: 4, POI: model.POI{ID: 3, Name: "cafe"}}
	if err := repo.Store(v); err != nil {
		t.Fatal(err)
	}
	if err := repo.StoreBatch([]model.Visit{v}); err != nil {
		t.Fatal(err)
	}
	if err := repo.Store(model.Visit{UserID: 9, Time: 2000}); err == nil {
		t.Error("visit without POI must fail")
	}
	if announced != 2 || len(hooked) != 2 || len(hooked[0]) != 1 || len(hooked[1]) != 1 || hooked[0][0].Time != hooked[1][0].Time {
		t.Fatalf("hooks saw %d announcements and %+v, want two one-visit batches", announced, hooked)
	}
	var got []model.Visit
	if err := repo.ScanAll(func(v model.Visit) bool { got = append(got, v); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].POI.Name != "cafe" || got[0].Time != got[1].Time {
		t.Fatalf("stored %+v, want the same visit twice", got)
	}
}

func countVisits(t *testing.T, repo *VisitsRepo) int {
	t.Helper()
	n := 0
	if err := repo.ScanAll(func(model.Visit) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestVisitsFailedWriteSettlesUncommitted: a batch the table refuses is
// announced, then settled as not committed, and the caller gets the error.
func TestVisitsFailedWriteSettlesUncommitted(t *testing.T) {
	repo, err := NewVisitsRepo(SchemaReplicated, 100, 4, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faultinject.ParseSchedule("crash:op=put", 1)
	if err != nil {
		t.Fatal(err)
	}
	repo.Table().SetFaultInjector(faultinject.New(sched))
	var announced, settled, committed int
	repo.SetOnStore(
		func([]model.Visit) { announced++ },
		func(_ []model.Visit, ok bool) {
			settled++
			if ok {
				committed++
			}
		})
	if err := repo.Store(model.Visit{UserID: 9, Time: 1000, Grade: 4, POI: model.POI{ID: 3}}); err == nil {
		t.Fatal("injected put fault must fail the store")
	}
	if announced != 1 || settled != 1 || committed != 0 {
		t.Fatalf("announced/settled/committed = %d/%d/%d, want 1/1/0", announced, settled, committed)
	}
	if n := countVisits(t, repo); n != 0 {
		t.Fatalf("refused write left %d visits", n)
	}
}

func TestBlogsRepo(t *testing.T) {
	repo := NewBlogsRepo()
	day := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	visits := []trajectory.Visit{
		{
			Stay:    trajectory.StayPoint{Center: geo.Point{Lat: 37.98, Lon: 23.72}, Arrival: day.Add(10 * time.Hour), Departure: day.Add(11 * time.Hour), Fixes: 10},
			POI:     trajectory.POIRef{ID: 1, Name: "Syntagma Square", Pt: geo.Point{Lat: 37.98, Lon: 23.72}},
			Matched: true,
		},
	}
	blog := trajectory.BuildBlog(42, day, visits)
	stored, err := repo.Save(blog)
	if err != nil {
		t.Fatal(err)
	}
	if stored.ID == 0 || stored.UserID != 42 || len(stored.Entries) != 1 {
		t.Fatalf("stored = %+v", stored)
	}
	got, ok := repo.Get(42, day.Add(13*time.Hour)) // any time that day
	if !ok {
		t.Fatal("Get found no blog")
	}
	if got.ID != stored.ID || got.Entries[0].POI.Name != "Syntagma Square" {
		t.Errorf("got = %+v", got)
	}
	// Saving the same day replaces, not duplicates.
	blog.Entries[0].Comment = "lovely morning"
	stored2, err := repo.Save(blog)
	if err != nil {
		t.Fatal(err)
	}
	if stored2.ID != stored.ID {
		t.Errorf("resave must keep id %d, got %d", stored.ID, stored2.ID)
	}
	if list := repo.ListUser(42); len(list) != 1 {
		t.Fatalf("ListUser = %v", list)
	}
	if _, ok := repo.Get(42, day.Add(48*time.Hour)); ok {
		t.Error("different day must be absent")
	}
	if _, err := repo.Save(nil); err == nil {
		t.Error("nil blog must fail")
	}
}

func TestSinkBinding(t *testing.T) {
	social, err := NewSocialInfoRepo(100, 2, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	texts, err := NewTextRepo(100, 2, 2, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	visits := newTestVisitsRepo(t, SchemaReplicated)
	sink, err := NewSink(social, texts, visits)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.StoreFriends(1, []model.Friend{{ID: 2, Network: "facebook"}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.StoreComment(model.Comment{UserID: 1, POIID: 2, Time: 5, Text: "hi"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.StoreVisits([]model.Visit{{UserID: 1, Time: 5, POI: model.POI{ID: 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSink(nil, texts, visits); err == nil {
		t.Error("nil repo must fail")
	}
}

func TestVisitsRepoDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "visits.wal")
	poi := model.POI{ID: 3, Name: "taverna-3", Lat: 37.9, Lon: 23.7, Keywords: []string{"restaurant"}}

	// First life.
	repo, err := NewDurableVisitsRepo(SchemaReplicated, 100, 4, 2, kvstore.DefaultStoreOptions(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	tbl := repo.Table()
	for i := 0; i < 20; i++ {
		if err := repo.Store(model.Visit{UserID: int64(i%5 + 1), Time: int64(i * 1000), Grade: 4, POI: poi}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: everything is back and scannable.
	repo2, err := NewDurableVisitsRepo(SchemaReplicated, 100, 4, 2, kvstore.DefaultStoreOptions(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Table().Close()
	count := 0
	if err := repo2.ScanAll(func(v model.Visit) bool {
		if v.POI.Name != "taverna-3" {
			t.Fatal("recovered visit lost its POI payload")
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Errorf("recovered %d visits, want 20", count)
	}
	// The reopened repository numbers its rows past the replayed ones: a
	// visit at the user and millisecond of a replayed one is a second row,
	// not an overwrite (the sequence used to restart at zero).
	if err := repo2.Store(model.Visit{UserID: 1, Time: 0, Grade: 4, POI: poi}); err != nil {
		t.Fatal(err)
	}
	if n := countVisits(t, repo2); n != 21 {
		t.Errorf("%d visits after storing one more over the replayed log, want 21", n)
	}
}
