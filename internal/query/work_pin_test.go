package query

import (
	"context"
	"fmt"
	"testing"

	"modissense/internal/geo"
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
