package repos

import (
	"fmt"
	"math"
	"reflect"
	"sort"
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

// TestPutPaddedFallback checks the allocation-free key builders agree with
// their fmt formulations, including out-of-range fallbacks.
func TestPutPaddedFallback(t *testing.T) {
	if userKeyPrefix(42) != "u000000000042|" {
		t.Errorf("userKeyPrefix(42) = %q", userKeyPrefix(42))
	}
	if got := visitRowKey(999999999999, 9999999999999, 999999); got != "u999999999999|t9999999999999|999999" {
		t.Errorf("max in-range key = %q", got)
	}
	// Out-of-range values (negative timestamps in hand-built specs) fall
	// back to fmt and still round-trip.
	k := visitRowKey(5, -5, 0)
	if u, ts, _, err := parseVisitRowKey(k); err != nil || u != 5 || ts != -5 {
		t.Errorf("fallback key %q parsed to %d %d %v", k, u, ts, err)
	}
}

// FuzzVisitRowKey round-trips a row key for any visit visitCell accepts —
// any user from 1, any time, any sequence number, whatever width the key
// builder or its fmt fallback writes — since under the replicated schema
// the key is the only copy of a visit's user and time. Parsing a key
// allocates nothing.
func FuzzVisitRowKey(f *testing.F) {
	f.Add(int64(7), int64(42), uint32(0))
	f.Add(int64(1_000_000_000_000), int64(42), uint32(7))
	f.Add(int64(7), int64(10_000_000_000_000), uint32(7))
	f.Add(int64(7), int64(-1_000_000_000_000), uint32(7))
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), uint32(math.MaxUint32))
	f.Add(int64(1), int64(math.MaxInt64), uint32(1_000_000))
	f.Fuzz(func(t *testing.T, user, tm int64, seq uint32) {
		if user < 1 {
			return
		}
		key := visitRowKey(user, tm, seq)
		u, ts, s, err := parseVisitRowKey(key)
		if err != nil || u != user || ts != tm || s != seq {
			t.Fatalf("visitRowKey(%d, %d, %d) = %q parsed to %d %d %d %v", user, tm, seq, key, u, ts, s, err)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _, _, _ = parseVisitRowKey(key) }); allocs != 0 {
			t.Fatalf("parsing %q allocates %.0f times", key, allocs)
		}
	})
}

// TestVisitKeysAcrossTheMillionthVisit stores visits on both sides of the
// sequence number's six-digit boundary and reads them back: the keys below
// it keep their bytes, the keys above it come from the same builder, stay
// inside the user's scan range and parse back to what was written.
func TestVisitKeysAcrossTheMillionthVisit(t *testing.T) {
	for seq, want := range map[uint32]string{
		999999:         "u000000000007|t0000000000042|999999",
		1000000:        "u000000000007|t0000000000042|1000000",
		math.MaxUint32: "u000000000007|t0000000000042|4294967295",
	} {
		key := visitRowKey(7, 42, seq)
		if key != want || key != fmt.Sprintf("u%012d|t%013d|%06d", 7, 42, seq) {
			t.Errorf("visitRowKey(7, 42, %d) = %q, want %q", seq, key, want)
		}
		if u, ts, s, err := parseVisitRowKey(key); err != nil || u != 7 || ts != 42 || s != seq {
			t.Errorf("key %q parsed to %d %d %d %v", key, u, ts, s, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = visitRowKey(7, 42, 1234567) }); allocs > 1 {
		t.Errorf("a seven-digit sequence cost %v allocations, want the key alone", allocs)
	}
	for _, bad := range []string{
		"u000000000007|t0000000000042|99999", "u000000000007|t0000000000042|42949672950", "u000000000007|t0000000000042|4294967296",
		"u00000000007|t0000000000042|000001", "u000000000007|t000000000042|000001", "u000000000007|t0000000000042|00000a",
		"u-00000000007|t0000000000042|000001", "u000000000007|t-000000000042|-00001", "u000000000007|t0000000000042", "u9223372036854775808|t0000000000042|000001",
	} {
		if _, _, _, err := parseVisitRowKey(bad); err == nil {
			t.Errorf("malformed key %q parsed", bad)
		}
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
		u, _, s, err := parseVisitRowKey(row.Row)
		if err != nil || u != 11 {
			t.Errorf("stored key %q parsed to user %d: %v", row.Row, u, err)
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
