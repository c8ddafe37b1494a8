//go:build !race

// The race detector changes what a scan allocates (its sync.Pool drops a
// quarter of what is put back), so this file is left out of -race builds.

package query

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"modissense/internal/kvstore"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// TestRegionScanAllocsIndependentOfFriends: a region's scan writes each
// friend's bounds into a reused buffer just before it seeks to them, so once
// the pooled aggregation scratch has grown, one region scan over 1 000
// friends allocates exactly as often as one over 100. The region holds
// 1 000 users' visits in several segments and the memtable; the 100 friends
// are every tenth user, so both scans read every segment.
func TestRegionScanAllocsIndependentOfFriends(t *testing.T) {
	opts := kvstore.DefaultStoreOptions()
	opts.FlushThresholdBytes = 64 << 10
	opts.CompactionTrigger = 1 << 20 // keep every flushed segment
	visits, err := repos.NewVisitsRepo(repos.SchemaReplicated, 1000, 1, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pois := workload.GenPOIs(rng, 300)
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	for uid := int64(1); uid <= 1000; uid++ {
		for _, v := range workload.GenVisitsForUser(rng, uid, pois, start, end, 6, 2) {
			if err := visits.Store(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := visits.Table().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	region := visits.Table().Regions()[0]
	if st := region.Store().Stats(); st.Segments < 2 || st.MemtableCells == 0 {
		t.Fatalf("fixture cannot tell: %d segments, %d memtable cells", st.Segments, st.MemtableCells)
	}
	from, to := window()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scan := func(step int64) float64 {
		var friends []int64
		for id := step; id <= 1000; id += step {
			friends = append(friends, id)
		}
		spec := Spec{FriendIDs: friends, FromMillis: from, ToMillis: to}
		cp := &visitsCoprocessor{spec: &spec, schema: repos.SchemaReplicated, ranges: friendRanges(friends, from, to)}
		run := func() {
			out, err := cp.runRegion(context.Background(), region)
			if err != nil {
				t.Fatal(err)
			}
			if out.work.Friends != len(friends) || out.work.RowsScanned < len(friends) {
				t.Fatalf("%d friends: the scan read %+v", len(friends), out.work)
			}
			out.release()
		}
		run()
		return testing.AllocsPerRun(20, run)
	}
	scan(1)
	few, many := scan(10), scan(1)
	t.Logf("one region scan: %v allocations over 100 friends, %v over 1000", few, many)
	if many != few {
		t.Errorf("a region scan over 1000 friends allocated %v times, over 100 friends %v: a friend must cost no allocation", many, few)
	}
}
