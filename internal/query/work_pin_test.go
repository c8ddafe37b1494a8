package query

import (
	"context"
	"fmt"
	"testing"

	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/repos"
)

// TestExecAndWorkPinned pins what a query reports of its work on a fixed
// store — Exec's tasks, rows and merged bytes, the summed CoprocessorWork
// and the simulated latency — at the values the coprocessor reported when
// every region decoded a POI document per aggregate and routed friends by
// their key prefix. Keeping row payloads instead of documents, decoding per
// merged candidate and routing by clipped ranges change what the host does,
// not what the query reports or what the simulated cluster is charged.
func TestExecAndWorkPinned(t *testing.T) {
	from, to := window()
	athens := &geo.Rect{MinLat: 37.8, MinLon: 23.55, MaxLat: 38.15, MaxLon: 23.9}
	cases := []struct {
		name   string
		schema repos.VisitSchema
		spec   Spec
		want   string
	}{
		{"replicated interest", repos.SchemaReplicated,
			Spec{FriendIDs: friendRange(1, 120), FromMillis: from, ToMillis: to, OrderBy: ByInterest, Limit: 10},
			"tasks=32 rows=2363 bytes=179709 work={Friends:120 RowsScanned:2363 VisitsMatched:2363 CandidatePOIs:2075} latency=0.02024248578235231"},
		{"replicated box and keyword", repos.SchemaReplicated,
			Spec{FriendIDs: friendRange(1, 60), FromMillis: from, ToMillis: to, BBox: athens, Keyword: "food", OrderBy: ByHotness, Limit: 5},
			"tasks=32 rows=1176 bytes=6053 work={Friends:60 RowsScanned:1176 VisitsMatched:80 CandidatePOIs:68} latency=0.015823200000000003"},
		{"replicated region top-k", repos.SchemaReplicated,
			Spec{FriendIDs: friendRange(1, 120), FromMillis: from, ToMillis: (from + to) / 2, OrderBy: ByHotness, RegionTopK: 5},
			"tasks=32 rows=1183 bytes=13863 work={Friends:120 RowsScanned:1183 VisitsMatched:1183 CandidatePOIs:160} latency=0.0166697754247591"},
		{"normalized interest", repos.SchemaNormalized,
			Spec{FriendIDs: friendRange(1, 120), FromMillis: from, ToMillis: to, OrderBy: ByInterest, Limit: 10},
			"tasks=32 rows=2363 bytes=99600 work={Friends:120 RowsScanned:2363 VisitsMatched:2363 CandidatePOIs:2075} latency=0.03054248578235231"},
	}
	fixtures := map[repos.VisitSchema]*fixture{}
	for _, c := range cases {
		f := fixtures[c.schema]
		if f == nil {
			f = newFixture(t, c.schema, 4, 120)
			fixtures[c.schema] = f
		}
		c.spec.NoCache = true
		res, err := f.engine.Run(context.Background(), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("tasks=%d rows=%d bytes=%d work=%+v latency=%v",
			res.Exec.Tasks, res.Exec.RowsScanned, res.Exec.BytesMerged, res.Work, res.LatencySeconds)
		if got != c.want {
			t.Errorf("%s:\ngot  %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestBytesMergedIsFirstRowDocuments: a query's Exec.BytesMerged estimates
// what its regions ship, 48 bytes per partial aggregate plus its document's
// text — the name, the keywords' bytes and 3 per keyword — sized from the
// POI's first matching row in the region. Brute force sizes each region's
// first matching row per POI from its decoded document, over a store where
// one POI's rows alternate between two versions of different lengths.
func TestBytesMergedIsFirstRowDocuments(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 2, 40)
	from, to := window()
	short := model.POI{ID: 9002, Name: "stoa", Lat: 37.97, Lon: 23.72, Keywords: []string{"food"}}
	long := model.POI{ID: 9002, Name: "stoa of attalos", Lat: 37.97, Lon: 23.72, Keywords: []string{"food", "museum", "view"}}
	for k := int64(0); k < 6; k++ {
		for _, user := range []int64{5, 6, 33} {
			p := short
			if (k+user)%2 == 0 {
				p = long
			}
			storeVisits(t, f, user, p, from+k*60_000, 1)
		}
	}
	athens := &geo.Rect{MinLat: 37.8, MinLon: 23.55, MaxLat: 38.15, MaxLon: 23.9}
	for _, spec := range []Spec{
		{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to},
		{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Keyword: "museum"},
		{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Keyword: "food", BBox: athens},
	} {
		spec.NoCache = true
		res, err := f.engine.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		var want int64
		for _, r := range f.visits.Table().Regions() {
			friends := friendRanges(sortedDistinctFriends(spec.FriendIDs), spec.FromMillis, spec.ToMillis)
			ranges := r.ClipRanges(&friends)
			if ranges.Len() == 0 {
				continue
			}
			seen := map[int64]bool{}
			if err := r.Store().MultiScanSource(context.Background(), ranges, 0, func(row kvstore.RowResult) bool {
				raw, _ := row.Get(repos.VisitQualifier)
				v, err := model.DecodeVisitBinary(raw)
				if err != nil || seen[v.POI.ID] || !spec.matchesPOI(&v.POI) {
					return true
				}
				seen[v.POI.ID] = true
				want += int64(48 + len(v.POI.Name) + 3*len(v.POI.Keywords))
				for _, k := range v.POI.Keywords {
					want += int64(len(k))
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if want == 0 || res.Exec.BytesMerged != want {
			t.Errorf("keyword %q: BytesMerged = %d, brute force over each region's first matching rows %d", spec.Keyword, res.Exec.BytesMerged, want)
		}
	}
}
