package kvstore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"modissense/internal/faultinject"
)

func newReplTable(t *testing.T, splits []string, nodes int) *Table {
	t.Helper()
	tbl, err := NewTable("repl-test", splits, nodes, DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func scanRows(t *testing.T, st *Store) []string {
	t.Helper()
	var rows []string
	err := st.MultiScanCtx(context.Background(), []ScanRange{{}}, 0, func(res RowResult) bool {
		for _, c := range res.Cells {
			rows = append(rows, res.Row+"="+string(c.Value))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// interceptShips arms a crash:op=ship schedule on the table: every later
// shipment (or, with prob in (0, 1), that share of them) is intercepted, so
// the replicas lag until a catch-up, a split or a promotion.
func interceptShips(t *testing.T, tbl *Table, prob float64) {
	t.Helper()
	sched, err := faultinject.ParseSchedule(fmt.Sprintf("crash:op=ship,prob=%g", prob), 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl.SetFaultInjector(faultinject.New(sched))
}

// regionLag is the region's unshipped-mutation count: how many primary
// writes its slowest replica has not yet observed.
func regionLag(r *Region) uint64 {
	rs := r.replicaSet()
	if rs == nil {
		return 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.lagLocked()
}

// tableLag sums the unshipped-mutation counts of every region.
func tableLag(t *Table) uint64 {
	var total uint64
	for _, r := range t.Regions() {
		total += regionLag(r)
	}
	return total
}

func TestEnableReplicationSeedsExistingData(t *testing.T) {
	tbl := newReplTable(t, []string{"m"}, 4)
	for i := 0; i < 10; i++ {
		if err := tbl.Put(fmt.Sprintf("k%02d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Regions() {
		if r.Replicas() != 2 {
			t.Fatalf("region %d has %d replicas, want 2", r.ID, r.Replicas())
		}
		primary := scanRows(t, r.ReadView(0).Store())
		for i := 1; i <= 2; i++ {
			view := r.ReadView(i)
			if view.NodeID == r.NodeID {
				t.Fatalf("region %d replica %d placed on the primary's node %d", r.ID, i, r.NodeID)
			}
			got := scanRows(t, view.Store())
			if strings.Join(got, ",") != strings.Join(primary, ",") {
				t.Fatalf("region %d replica %d diverges from primary:\n%v\n%v", r.ID, i, got, primary)
			}
		}
	}
	if err := tbl.EnableReplication(2); err == nil {
		t.Fatal("double EnableReplication should fail")
	}
}

func TestReplicationLagAndCatchUp(t *testing.T) {
	tbl := newReplTable(t, nil, 3)
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	interceptShips(t, tbl, 1)
	for i := 0; i < 5; i++ {
		if err := tbl.Put(fmt.Sprintf("k%d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if lag := tableLag(tbl); lag != 5 {
		t.Fatalf("lag = %d, want 5 (every shipment intercepted)", lag)
	}
	r := tbl.Regions()[0]
	if rows := scanRows(t, r.ReadView(1).Store()); len(rows) != 0 {
		t.Fatalf("replica observed unshipped writes: %v", rows)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	if lag := tableLag(tbl); lag != 0 {
		t.Fatalf("lag after catch-up = %d, want 0", lag)
	}
	if rows := scanRows(t, r.ReadView(1).Store()); len(rows) != 5 {
		t.Fatalf("replica has %d rows after catch-up, want 5", len(rows))
	}
}

// TestReplicationBatchShipping: every write ships as it commits, a batch
// as one shipment, and a write after an intercepted one ships the whole
// unobserved tail.
func TestReplicationBatchShipping(t *testing.T) {
	tbl := newReplTable(t, nil, 2)
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	r := tbl.Regions()[0]
	if err := tbl.Put("a", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if lag := tableLag(tbl); lag != 0 {
		t.Fatalf("lag = %d after one put, want 0", lag)
	}
	if err := tbl.PutBatch([]Cell{{Row: "b", Qualifier: "q", Timestamp: 1}, {Row: "c", Qualifier: "q", Timestamp: 1}}); err != nil {
		t.Fatal(err)
	}
	if rows := scanRows(t, r.ReadView(1).Store()); len(rows) != 3 || tableLag(tbl) != 0 {
		t.Fatalf("replica rows = %v (lag %d), want 3 (lag 0)", rows, tableLag(tbl))
	}
	interceptShips(t, tbl, 1)
	if err := tbl.Put("d", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if lag := tableLag(tbl); lag != 1 {
		t.Fatalf("lag = %d after an intercepted ship, want 1", lag)
	}
	tbl.SetFaultInjector(nil)
	if err := tbl.Put("e", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if rows := scanRows(t, r.ReadView(1).Store()); len(rows) != 5 || tableLag(tbl) != 0 {
		t.Fatalf("replica rows = %v (lag %d), want 5 (lag 0)", rows, tableLag(tbl))
	}
}

func TestReplicationShipsTombstones(t *testing.T) {
	tbl := newReplTable(t, nil, 2)
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Put("a", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.PutBatch([]Cell{{Row: "a", Qualifier: "q", Timestamp: 2, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	r := tbl.Regions()[0]
	if rows := scanRows(t, r.ReadView(1).Store()); len(rows) != 0 {
		t.Fatalf("replica should observe the tombstone, got %v", rows)
	}
}

func TestSplitRebuildsReplicas(t *testing.T) {
	tbl := newReplTable(t, nil, 3)
	if err := tbl.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	interceptShips(t, tbl, 1)
	for i := 0; i < 10; i++ {
		if err := tbl.Put(fmt.Sprintf("k%02d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Lag is nonzero (every shipment intercepted); the split must fold the
	// pending tail into the fresh replica stores without double-applying.
	if err := tbl.SplitRegion("k05"); err != nil {
		t.Fatal(err)
	}
	if lag := tableLag(tbl); lag != 0 {
		t.Fatalf("lag after split = %d, want 0 (fresh replicas start converged)", lag)
	}
	total := 0
	for _, r := range tbl.Regions() {
		if r.Replicas() != 2 {
			t.Fatalf("post-split region %d has %d replicas, want 2", r.ID, r.Replicas())
		}
		primary := scanRows(t, r.ReadView(0).Store())
		for i := 1; i <= 2; i++ {
			got := scanRows(t, r.ReadView(i).Store())
			if strings.Join(got, ",") != strings.Join(primary, ",") {
				t.Fatalf("post-split region %d replica %d diverges:\n%v\n%v", r.ID, i, got, primary)
			}
		}
		total += len(primary)
	}
	if total != 10 {
		t.Fatalf("post-split rows = %d, want 10", total)
	}
}

func TestReadViewFallsBackToPrimary(t *testing.T) {
	tbl := newReplTable(t, nil, 2)
	if err := tbl.Put("a", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	r := tbl.Regions()[0]
	// No replication: any index serves the primary.
	for _, idx := range []int{0, 1, 5} {
		view := r.ReadView(idx)
		if view.NodeID != r.NodeID || len(scanRows(t, view.Store())) != 1 {
			t.Fatalf("ReadView(%d) without replication should serve the primary", idx)
		}
	}
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	// Out-of-range replica index also falls back.
	if view := r.ReadView(9); view.NodeID != r.NodeID {
		t.Fatalf("out-of-range ReadView should serve the primary")
	}
	if lag := regionLag(r); lag != 0 {
		t.Fatalf("fresh replication lag = %d", lag)
	}
}
