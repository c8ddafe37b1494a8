package kvstore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"modissense/internal/exec"
)

func newTestTable(t testing.TB, splits []string, nodes int) *Table {
	t.Helper()
	opts := DefaultStoreOptions()
	tbl, err := NewTable("visits", splits, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	opts := DefaultStoreOptions()
	if _, err := NewTable("", nil, 4, opts); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := NewTable("t", nil, 0, opts); err == nil {
		t.Error("zero nodes must fail")
	}
	if _, err := NewTable("t", []string{"a", "a"}, 4, opts); err == nil {
		t.Error("duplicate split keys must fail")
	}
	if _, err := NewTable("t", []string{""}, 4, opts); err == nil {
		t.Error("empty split key must fail")
	}
}

// regionHolds reports whether the row key falls inside the region's range.
func regionHolds(r *Region, row string) bool {
	return row >= r.StartKey && (r.EndKey() == "" || row < r.EndKey())
}

func TestTableRegionRouting(t *testing.T) {
	tbl := newTestTable(t, []string{"g", "p"}, 4)
	if got := tbl.NumRegions(); got != 3 {
		t.Fatalf("regions = %d, want 3", got)
	}
	cases := []struct {
		row       string
		wantStart string
	}{
		{"a", ""}, {"f", ""}, {"g", "g"}, {"o", "g"}, {"p", "p"}, {"zzz", "p"},
	}
	for _, c := range cases {
		r := tbl.RegionFor(c.row)
		if r.StartKey != c.wantStart {
			t.Errorf("RegionFor(%q).StartKey = %q, want %q", c.row, r.StartKey, c.wantStart)
		}
		if !regionHolds(r, c.row) {
			t.Errorf("region %q..%q must contain %q", r.StartKey, r.EndKey(), c.row)
		}
	}
}

func TestTableRegionsCoverKeySpace(t *testing.T) {
	tbl := newTestTable(t, []string{"d", "h", "m", "t"}, 4)
	regions := tbl.Regions()
	if regions[0].StartKey != "" {
		t.Error("first region must start at the beginning of the key space")
	}
	if regions[len(regions)-1].EndKey() != "" {
		t.Error("last region must extend to the end of the key space")
	}
	for i := 1; i < len(regions); i++ {
		if regions[i-1].EndKey() != regions[i].StartKey {
			t.Errorf("gap between region %d and %d: %q vs %q", i-1, i, regions[i-1].EndKey(), regions[i].StartKey)
		}
	}
}

func TestTableRoundRobinPlacement(t *testing.T) {
	tbl := newTestTable(t, []string{"b", "c", "d", "e", "f", "g", "h"}, 4)
	counts := map[int]int{}
	for _, r := range tbl.Regions() {
		counts[r.NodeID]++
	}
	if len(counts) != 4 {
		t.Errorf("8 regions should spread over all 4 nodes, got %v", counts)
	}
	for node, n := range counts {
		if n != 2 {
			t.Errorf("node %d hosts %d regions, want 2", node, n)
		}
	}
}

func TestTablePutGetAcrossRegions(t *testing.T) {
	tbl := newTestTable(t, []string{"m"}, 2)
	if err := tbl.Put("alpha", "q", 1, []byte("low")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("zeta", "q", 1, []byte("high")); err != nil {
		t.Fatal(err)
	}
	res, err := readRow(tbl, "alpha", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Get("q"); string(v) != "low" {
		t.Errorf("alpha = %q", v)
	}
	res, _ = readRow(tbl, "zeta", 0)
	if v, _ := res.Get("q"); string(v) != "high" {
		t.Errorf("zeta = %q", v)
	}
	if err := tbl.PutBatch([]Cell{{Row: "zeta", Qualifier: "q", Timestamp: 2, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	res, _ = readRow(tbl, "zeta", 0)
	if !res.Empty() {
		t.Error("zeta must be deleted")
	}
	if err := tbl.Put("", "q", 1, nil); err == nil {
		t.Error("empty row must fail")
	}
	if err := tbl.PutBatch([]Cell{{Row: "", Qualifier: "q", Timestamp: 1, Tombstone: true}}); err == nil {
		t.Error("empty row delete must fail")
	}
}

func TestTableScanGlobalOrder(t *testing.T) {
	tbl := newTestTable(t, []string{"h", "q"}, 4)
	keys := []string{"zz", "ab", "hq", "qa", "ha", "pp", "aa", "qz"}
	for i, k := range keys {
		if err := tbl.Put(k, "q", int64(i+1), []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool {
		got = append(got, r.Row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan = %v, want %v", got, want)
	}
}

func TestTableScanRangeSpanningRegions(t *testing.T) {
	tbl := newTestTable(t, []string{"e", "j", "o"}, 4)
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c), "q", 1, []byte{c}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := tbl.Scan(ScanOptions{StartRow: "c", StopRow: "q"}, func(r RowResult) bool {
		got = append(got, r.Row)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got[0] != "c" || got[len(got)-1] != "p" || len(got) != 14 {
		t.Errorf("range scan = %v", got)
	}

	// An early stop across region boundaries.
	got = nil
	if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool {
		got = append(got, r.Row)
		return len(got) < 9
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 || got[8] != "i" {
		t.Errorf("early-stopped scan = %v", got)
	}
}

// countRows is the region function most tests fan out: it counts the live
// rows of one region.
func countRows(ctx context.Context, r *Region) (int, error) {
	count := 0
	err := r.Store().MultiScanCtx(ctx, []ScanRange{{}}, 0, func(RowResult) bool { count++; return true })
	return count, err
}

// requireNoRegionErr fails the test on the first region that reported an error.
func requireNoRegionErr[T any](t testing.TB, results []RegionResult[T]) {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("region %d: %v", r.Region.ID, r.Err)
		}
	}
}

func TestExecRegionsPerRegion(t *testing.T) {
	tbl := newTestTable(t, []string{"m"}, 2)
	for _, k := range []string{"a", "b", "c", "x", "y"} {
		if err := tbl.Put(k, "q", 1, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	results := ExecRegions(context.Background(), tbl, ReadOptions{}, countRows)
	requireNoRegionErr(t, results)
	if len(results) != 2 {
		t.Fatalf("got %d region results, want 2", len(results))
	}
	if results[0].Value != 3 || results[1].Value != 2 {
		t.Errorf("per-region counts = %v, %v; want 3, 2", results[0].Value, results[1].Value)
	}
	for i, r := range results {
		// The zero ReadOptions: one attempt, served by the primary.
		want := exec.ReadMeta{Attempts: 1}
		if r.Meta != want || r.ServedNode != r.Region.NodeID {
			t.Errorf("region %d: meta %+v served by node %d, want %+v on node %d", i, r.Meta, r.ServedNode, want, r.Region.NodeID)
		}
	}
	// A nil region function is a caller bug: it must fail every region, not
	// crash the process.
	for i, r := range ExecRegions[int](context.Background(), tbl, ReadOptions{}, nil) {
		if r.Err == nil {
			t.Errorf("region %d: nil region function reported no error", i)
		}
	}
}

func TestSplitRegionPreservesDataAndHistory(t *testing.T) {
	tbl := newTestTable(t, nil, 4)
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c), "q", 1, []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Put(string(c), "q", 2, []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.PutBatch([]Cell{{Row: "d", Qualifier: "q", Timestamp: 3, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SplitRegion("m"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.NumRegions(); got != 2 {
		t.Fatalf("regions after split = %d, want 2", got)
	}
	if err := tbl.SplitRegion("m"); err == nil {
		t.Error("splitting at an existing boundary must fail")
	}
	if err := tbl.SplitRegion(""); err == nil {
		t.Error("empty split key must fail")
	}

	// All rows still readable with correct values; deleted row stays deleted.
	count := 0
	if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool {
		count++
		if v, _ := r.Get("q"); string(v) != "v2" {
			t.Errorf("row %s = %q, want v2", r.Row, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 25 { // 26 letters minus the deleted "d"
		t.Errorf("rows after split = %d, want 25", count)
	}
	// Version history preserved: snapshot read at ts=1 still sees v1.
	res, err := readRow(tbl.RegionFor("t").Store(), "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Get("q"); string(v) != "v1" {
		t.Errorf("snapshot after split = %q, want v1", v)
	}
	// Routing honors the new boundary.
	if r := tbl.RegionFor("z"); r.StartKey != "m" {
		t.Errorf("z routed to region starting %q, want m", r.StartKey)
	}
}

func TestSplitRegionRepeatedIncreasesParallelUnits(t *testing.T) {
	tbl := newTestTable(t, nil, 4)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("row-%04d", rng.Intn(10000))
		if err := tbl.Put(key, "q", int64(i+1), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, split := range []string{"row-2500", "row-5000", "row-7500"} {
		if err := tbl.SplitRegion(split); err != nil {
			t.Fatal(err)
		}
	}
	if got := tbl.NumRegions(); got != 4 {
		t.Fatalf("regions = %d, want 4", got)
	}
	// Every row routes to a region that contains it.
	if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool {
		reg := tbl.RegionFor(r.Row)
		if !regionHolds(reg, r.Row) {
			t.Errorf("row %s routed to region [%q,%q)", r.Row, reg.StartKey, reg.EndKey())
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentGaugesFollowLiveStores pins the segment-bytes and
// compaction-debt gauges to the stores a table still holds: a split, a
// failover rebuild and Close each take the stores they discard off the
// gauges, region and replica stores alike.
func TestSegmentGaugesFollowLiveStores(t *testing.T) {
	gauges := func() [3]int64 {
		return [3]int64{mSegLogicalBytes.Value(), mSegResidentBytes.Value(), mCompactionDebt.Value()}
	}
	before := gauges()
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 4 << 10
	tbl, err := NewTable("segment-gauges", nil, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(FailoverConfig{}); err != nil {
		t.Fatal(err)
	}
	write := func(from, to int) {
		t.Helper()
		batch := make([]Cell, 0, 100)
		for i := from; i < to; i++ {
			batch = append(batch, Cell{Row: fmt.Sprintf("row-%05d", i), Qualifier: "q", Timestamp: 1, Value: []byte("value")})
			if len(batch) == cap(batch) || i == to-1 {
				if err := tbl.PutBatch(batch); err != nil {
					t.Fatal(err)
				}
				batch = batch[:0]
			}
		}
	}
	write(0, 4000)
	// check waits out every live store's maintenance and compares the
	// gauges with what those stores report, on top of the baseline.
	check := func(stage string) {
		t.Helper()
		want := before
		for _, r := range tbl.Regions() {
			stores := []*Store{r.Store()}
			for _, rep := range r.replicaSet().replicas {
				stores = append(stores, rep.store)
			}
			for _, st := range stores {
				if err := st.WaitMaintenance(); err != nil {
					t.Fatal(err)
				}
				s := st.Stats()
				want[0] += s.SegmentLogicalBytes
				want[1] += s.SegmentResidentBytes
				want[2] += s.CompactionDebtBytes
			}
		}
		if want[0] == before[0] {
			t.Fatalf("%s: the live stores hold no segment bytes", stage)
		}
		if got := gauges(); got != want {
			t.Errorf("%s: gauges (logical, resident, debt) = %v, live stores hold %v", stage, got, want)
		}
	}
	check("before the split")
	// A flush still running when the split retires its store must not put
	// the store's bytes back: hold one at its hook across the split.
	old := tbl.Regions()[0].Store()
	gate, held := make(chan struct{}), make(chan struct{}, 1)
	old.mu.Lock()
	old.flushHook = func(*memtable) error {
		select {
		case held <- struct{}{}:
		default:
		}
		<-gate
		return nil
	}
	old.mu.Unlock()
	write(4000, 4200) // over 4 KiB: rotates at least one memtable
	<-held
	if err := tbl.SplitRegion("row-02000"); err != nil {
		t.Fatal(err)
	}
	close(gate)
	if err := old.WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	check("after the split")
	// Node 1 is the upper region's primary and the lower region's replica
	// node: failing it over promotes one region and evicts the other's
	// replica.
	if err := tbl.FailoverNode(1); err != nil {
		t.Fatal(err)
	}
	check("after the failover")
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gauges(); got != before {
		t.Errorf("after Close: gauges (logical, resident, debt) = %v, want the baseline %v", got, before)
	}
}

// TestTableConcurrentMutationsAndCoprocessors stresses the table with
// parallel writers, readers and region fan-outs; run it under -race.
func TestTableConcurrentMutationsAndExecRegions(t *testing.T) {
	tbl := newTestTable(t, []string{"g", "p"}, 4)
	done := make(chan error, 6)
	for w := 0; w < 3; w++ {
		w := w
		go func() {
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("%c%03d", 'a'+byte((w*7+i)%26), i)
				if err := tbl.Put(key, "q", int64(i+1), []byte("value")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 100; i++ {
				for _, r := range ExecRegions(context.Background(), tbl, ReadOptions{}, countRows) {
					if r.Err != nil {
						done <- r.Err
						return
					}
				}
			}
			done <- nil
		}()
	}
	go func() {
		for i := 0; i < 200; i++ {
			if _, err := readRow(tbl, "a000", 0); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 6; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// All 900 writes (with duplicate keys overwritten) remain readable.
	rows := 0
	if err := tbl.Scan(ScanOptions{}, func(RowResult) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("no rows after concurrent load")
	}
}
