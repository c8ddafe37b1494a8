package repos

import (
	"cmp"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"modissense/internal/kvstore"
	"modissense/internal/model"
)

// TestVisitsRepoMixedJSONBinaryDecode puts a JSON visit document — what no
// writer has emitted since the binary codec landed — on a table next to
// binary rows: it is not binary, so a scan that reaches it fails with the
// decode error a corrupt row gets, and scans that do not are unaffected.
func TestVisitsRepoMixedJSONBinaryDecode(t *testing.T) {
	for _, schema := range []VisitSchema{SchemaReplicated, SchemaNormalized} {
		t.Run(schema.String(), func(t *testing.T) {
			repo := newTestVisitsRepo(t, schema)
			poi := model.POI{ID: 7, Name: "plaka-cafe", Lat: 37.97, Lon: 23.73, Keywords: []string{"cafe", "view"}}
			base := time.Date(2015, 5, 1, 8, 0, 0, 0, time.UTC)
			var want []model.Visit
			for i := 0; i < 4; i++ {
				v := model.Visit{UserID: 11, Time: model.Millis(base.Add(time.Duration(i) * time.Minute)), Grade: float64(i + 1), Network: "twitter", POI: poi}
				if err := repo.Store(v); err != nil {
					t.Fatal(err)
				}
				if schema == SchemaNormalized {
					v.POI = model.POI{ID: poi.ID}
				}
				want = append(want, v)
			}
			stray := model.Visit{UserID: 12, Time: model.Millis(base), Grade: 3, Network: "twitter", POI: poi}
			if err := repo.table.Put(visitRowKey(stray.UserID, stray.Time, repo.seq.Add(1)), VisitQualifier, stray.Time, model.EncodeJSON(stray)); err != nil {
				t.Fatal(err)
			}
			var got []model.Visit
			if err := scanUser(repo, 11, 0, math.MaxInt64/2, func(v model.Visit) bool { got = append(got, v); return true }); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i].Time < got[j].Time })
			if !reflect.DeepEqual(got, want) {
				t.Errorf("scan of the binary rows:\ngot  %+v\nwant %+v", got, want)
			}
			if err := repo.ScanAll(func(model.Visit) bool { return true }); err == nil {
				t.Error("a scan over the JSON row must return its decode error")
			}
			if _, err := DecodeVisit(schema, model.EncodeJSON(stray)); err == nil {
				t.Error("DecodeVisit must reject a JSON document")
			}
		})
	}
}

// FuzzVisitRowKey checks the key of any visit visitCell accepts — any user
// from 1, any time, any sequence number — against two invariants: the key
// round-trips, since under the replicated schema it is the only copy of a
// visit's user and time, and parsing it allocates nothing; and keys compare
// as their (user, time, seq) tuples do, which is what makes a user's window
// one contiguous range.
func FuzzVisitRowKey(f *testing.F) {
	f.Add(int64(7), int64(42), uint32(0), int64(7), int64(42), uint32(1))
	f.Add(int64(7), int64(-1), uint32(0), int64(7), int64(1), uint32(0))
	f.Add(int64(7), int64(10_000_000_000_000), uint32(7), int64(7), int64(1_430_000_000_000), uint32(7))
	f.Add(int64(255), int64(math.MaxInt64), uint32(math.MaxUint32), int64(256), int64(math.MinInt64), uint32(0))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), uint32(math.MaxUint32), int64(1), int64(math.MaxInt64), uint32(1_000_000))
	f.Add(int64(1), int64(math.MinInt64), uint32(0), int64(1), int64(0), uint32(0))
	f.Fuzz(func(t *testing.T, user1, tm1 int64, seq1 uint32, user2, tm2 int64, seq2 uint32) {
		if user1 < 1 || user2 < 1 {
			return
		}
		k1, k2 := visitRowKey(user1, tm1, seq1), visitRowKey(user2, tm2, seq2)
		for _, k := range []struct {
			key      string
			user, tm int64
			seq      uint32
		}{{k1, user1, tm1, seq1}, {k2, user2, tm2, seq2}} {
			u, ts, s, ok := parseVisitRowKey(k.key)
			if !ok || u != k.user || ts != k.tm || s != k.seq {
				t.Fatalf("visitRowKey(%d, %d, %d) = %q parsed to %d %d %d %v", k.user, k.tm, k.seq, k.key, u, ts, s, ok)
			}
			if allocs := testing.AllocsPerRun(10, func() { _, _, _, _ = parseVisitRowKey(k.key) }); allocs != 0 {
				t.Fatalf("parsing %q allocates %.0f times", k.key, allocs)
			}
		}
		want := cmp.Compare(user1, user2)
		if want == 0 {
			want = cmp.Compare(tm1, tm2)
		}
		if want == 0 {
			want = cmp.Compare(seq1, seq2)
		}
		if got := strings.Compare(k1, k2); got != want {
			t.Fatalf("keys of (%d, %d, %d) and (%d, %d, %d) compare %d, the tuples %d", user1, tm1, seq1, user2, tm2, seq2, got, want)
		}
	})
}

// TestVisitKeysAcrossTheMillionthVisit stores visits on both sides of the
// sequence number's millionth value, two a millisecond, and reads them back:
// the sequence is what tells same-millisecond visits apart, and each key
// stays inside the user's scan range and parses back to what was written.
func TestVisitKeysAcrossTheMillionthVisit(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _ = visitRowKey(7, 42, 1234567) }); allocs > 1 {
		t.Errorf("a visit key cost %v allocations, want the key alone", allocs)
	}
	repo := newTestVisitsRepo(t, SchemaReplicated)
	repo.seq.Store(999996)
	poi := model.POI{ID: 7, Name: "plaka-cafe", Lat: 37.97, Lon: 23.73}
	var want []model.Visit
	for i := 0; i < 8; i++ {
		// Two visits per millisecond, so the sequence is what tells them apart.
		v := model.Visit{UserID: 11, Time: int64(1000 + i/2), Grade: float64(1 + i%5), Network: "twitter", POI: poi}
		if err := repo.Store(v); err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	var got []model.Visit
	if err := scanUser(repo, 11, 1000, 1003, func(v model.Visit) bool { got = append(got, v); return true }); err != nil {
		t.Fatal(err)
	}
	byTimeGrade := func(vs []model.Visit) {
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].Time != vs[j].Time {
				return vs[i].Time < vs[j].Time
			}
			return vs[i].Grade < vs[j].Grade
		})
	}
	byTimeGrade(got)
	byTimeGrade(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan across the boundary:\ngot  %+v\nwant %+v", got, want)
	}
	var seqs []uint32
	start, stop := VisitScanBounds(11, 1000, 1003)
	err := repo.Table().Scan(kvstore.ScanOptions{StartRow: start, StopRow: stop}, func(row kvstore.RowResult) bool {
		u, _, s, ok := parseVisitRowKey(row.Row)
		if !ok || u != 11 {
			t.Errorf("stored key %q parsed to user %d: %v", row.Row, u, ok)
		}
		seqs = append(seqs, s)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	if !reflect.DeepEqual(seqs, []uint32{999997, 999998, 999999, 1000000, 1000001, 1000002, 1000003, 1000004}) {
		t.Errorf("stored sequences = %v", seqs)
	}
}

// TestVisitTimesOutsideTheKeyDomain: every int64 time is stored and sorts in
// order, from math.MinInt64 to math.MaxInt64, and a window reaching either
// end reads the user's visits in it in time order and none of the next
// user's.
func TestVisitTimesOutsideTheKeyDomain(t *testing.T) {
	repo := newTestVisitsRepo(t, SchemaReplicated)
	poi := model.POI{ID: 7, Name: "plaka-cafe"}
	times := []int64{math.MinInt64, -1, 0, 10_000_000_000_000, math.MaxInt64}
	// Stored out of order, so the order read back is the keys'.
	for _, tm := range []int64{0, math.MaxInt64, -1, 10_000_000_000_000, math.MinInt64} {
		for _, user := range []int64{11, 12} {
			if err := repo.Store(model.Visit{UserID: user, Time: tm, POI: poi}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, w := range []struct {
		from, to int64
		want     []int64
	}{
		{math.MinInt64, math.MaxInt64, times},
		{math.MinInt64, math.MinInt64, times[:1]},
		{math.MaxInt64, math.MaxInt64, times[4:]},
		{-1, 0, times[1:3]},
		{1, math.MaxInt64, times[3:]},
		{1, 10_000_000_000_000 - 1, nil},
	} {
		var got []int64
		if err := scanUser(repo, 11, w.from, w.to, func(v model.Visit) bool {
			if v.UserID != 11 {
				t.Errorf("window [%d, %d] read user %d's visit", w.from, w.to, v.UserID)
			}
			got = append(got, v.Time)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w.want) {
			t.Errorf("window [%d, %d] read times %v, want %v", w.from, w.to, got, w.want)
		}
	}
}
