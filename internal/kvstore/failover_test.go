package kvstore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"modissense/internal/faultinject"
)

// failoverTable builds a replicated, failover-armed single-region table on
// the given node count.
func failoverTable(t *testing.T, nodes, replicas int, cfg FailoverConfig) *Table {
	t.Helper()
	tbl, err := NewTable("failover-test", nil, nodes, DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableReplication(replicas); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(cfg); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestFailureDetectorTransitions(t *testing.T) {
	// Event alphabet: f = recordFailure, s = recordSuccess, t = markSuspect
	// (breaker trip), d = markDown, r = markRecovered.
	cases := []struct {
		name      string
		events    string
		want      NodeHealth
		wantFired int // automatic onDown firings (markDown is quiet)
	}{
		{"fresh node is healthy", "", NodeHealthy, 0},
		{"below suspect threshold", "ff", NodeHealthy, 0},
		{"suspect at threshold", "fff", NodeSuspect, 0},
		{"success resets suspect", "fffs", NodeHealthy, 0},
		{"down at threshold", "ffffff", NodeDown, 1},
		{"down is sticky through success", "ffffffs", NodeDown, 1},
		{"down is sticky through more failures", "fffffff", NodeDown, 1},
		{"flapping node never reaches down", "ffsffsffsffsffsffs", NodeHealthy, 0},
		{"flapping through suspect never reaches down", "fffsfffsfffsfffs", NodeHealthy, 0},
		{"breaker trip escalates to suspect", "t", NodeSuspect, 0},
		{"breaker trip then failures reach down", "tfff", NodeDown, 1},
		{"success clears breaker trip", "ts", NodeHealthy, 0},
		{"forced down", "d", NodeDown, 0},
		{"forced down sticky through success", "ds", NodeDown, 0},
		{"recovered node is healthy", "ffffffr", NodeHealthy, 1},
		{"recovered node starts from a clean count", "ffffffrff", NodeHealthy, 1},
		{"recovery then full relapse", "ffffffrffffff", NodeDown, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fired := 0
			d := newFailureDetector(FailoverConfig{SuspectAfter: 3, DownAfter: 6}, 2, func(int) { fired++ })
			for _, ev := range tc.events {
				switch ev {
				case 'f':
					d.recordFailure(0)
				case 's':
					d.recordSuccess(0)
				case 't':
					d.markSuspect(0)
				case 'd':
					d.markDown(0)
				case 'r':
					d.markRecovered(0)
				}
			}
			if got := d.health(0); got != tc.want {
				t.Fatalf("after %q: health = %v, want %v", tc.events, got, tc.want)
			}
			if d.health(1) != NodeHealthy {
				t.Fatalf("untouched node 1 is %v", d.health(1))
			}
			if fired != tc.wantFired {
				t.Fatalf("after %q: onDown fired %d times, want %d", tc.events, fired, tc.wantFired)
			}
		})
	}
}

func TestEnableFailoverRequiresReplication(t *testing.T) {
	tbl, err := NewTable("no-repl", nil, 3, DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(FailoverConfig{}); err == nil {
		t.Fatal("EnableFailover without replication should fail")
	}
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(FailoverConfig{SuspectAfter: 5, DownAfter: 2}); err == nil {
		t.Fatal("DownAfter < SuspectAfter should be rejected")
	}
	if err := tbl.EnableFailover(FailoverConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableFailover(FailoverConfig{}); err == nil {
		t.Fatal("double EnableFailover should fail")
	}
}

func TestFailoverPromotesMostCaughtUpAndForceShips(t *testing.T) {
	// Replica index 2 is starved by a ship fault from the start and replica
	// 1 from the tenth write on, so replica 1 is the most-caught-up copy
	// without being current. Promotion must pick it and force-ship the tail
	// it has not observed, so every acked write is readable after cutover.
	// Each intercepted shipment counts one failure against the starved
	// node; three batches of three keep it below the down threshold.
	tbl := failoverTable(t, 4, 2, FailoverConfig{})
	starve := func(replica int) {
		tbl.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{
			{Fault: faultinject.Crash, Op: faultinject.OpShip, Node: faultinject.Any, Region: faultinject.Any, Replica: replica},
		}}))
	}
	starve(2)
	for b := 0; b < 3; b++ {
		var cells []Cell
		for i := 3 * b; i < 3*b+3; i++ {
			cells = append(cells, Cell{Row: fmt.Sprintf("k%02d", i), Qualifier: "q", Timestamp: 1, Value: []byte("v")})
		}
		if err := tbl.PutBatch(cells); err != nil {
			t.Fatal(err)
		}
	}
	starve(faultinject.Any)
	if err := tbl.Put("k09", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	r := tbl.Regions()[0]
	oldPrimary := r.PrimaryNode()
	caughtUpNode := r.ReadView(1).NodeID
	if lag := regionLag(r); lag != 10 {
		t.Fatalf("setup: starved replica lags %d writes, want 10", lag)
	}
	if rows := scanRows(t, r.ReadView(1).Store()); len(rows) != 9 {
		t.Fatalf("setup: replica 1 holds %d rows, want 9 (one write behind)", len(rows))
	}
	if err := tbl.FailoverNode(oldPrimary); err != nil {
		t.Fatal(err)
	}
	if got := r.PrimaryNode(); got != caughtUpNode {
		t.Fatalf("promoted node %d, want the most-caught-up replica's node %d", got, caughtUpNode)
	}
	rows := scanRows(t, r.ReadView(0).Store())
	if len(rows) != 10 {
		t.Fatalf("post-cutover primary has %d rows, want 10 (force-ship lost acked writes): %v", len(rows), rows)
	}
	// The old primary is fenced out of write placement and the set is
	// re-seeded back to the configured factor on live nodes.
	if got := r.Replicas(); got != 2 {
		t.Fatalf("replica count = %d, want 2 after re-seed", got)
	}
	for i := 1; i <= r.Replicas(); i++ {
		if n := r.ReadView(i).NodeID; n == oldPrimary {
			t.Fatalf("replica %d still hosted on the down node %d", i, n)
		}
	}
}

func TestZombiePrimaryFencing(t *testing.T) {
	tbl := failoverTable(t, 4, 2, FailoverConfig{})
	if err := tbl.Put("k1", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	r := tbl.Regions()[0]
	staleEpoch := r.Epoch()
	oldPrimary := r.PrimaryNode()
	if err := tbl.PutFenced("k2", "q", 1, []byte("v"), staleEpoch); err != nil {
		t.Fatalf("fenced write at the current epoch should pass: %v", err)
	}
	if err := tbl.FailoverNode(oldPrimary); err != nil {
		t.Fatal(err)
	}
	if got := r.Epoch(); got != staleEpoch+1 {
		t.Fatalf("epoch = %d, want %d after one promotion", got, staleEpoch+1)
	}
	// The zombie's late write carries the pre-promotion epoch: rejected,
	// and the row never becomes readable.
	err := tbl.PutFenced("zombie", "q", 1, []byte("late"), staleEpoch)
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("stale-epoch write = %v, want ErrEpochFenced", err)
	}
	res, err := readRow(tbl, "zombie", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 0 {
		t.Fatalf("fenced zombie write became readable: %+v", res)
	}
	// A writer that refreshed its epoch proceeds.
	if err := tbl.PutFenced("k3", "q", 1, []byte("v"), r.Epoch()); err != nil {
		t.Fatalf("current-epoch write rejected: %v", err)
	}
}

func TestWriteCrashTriggersAutoFailover(t *testing.T) {
	tbl := failoverTable(t, 4, 2, FailoverConfig{SuspectAfter: 2, DownAfter: 4})
	for i := 0; i < 5; i++ {
		if err := tbl.Put(fmt.Sprintf("seed%d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	r := tbl.Regions()[0]
	victim := r.PrimaryNode()
	tbl.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{
		{Fault: faultinject.Crash, Op: faultinject.OpPut, Node: victim, Region: faultinject.Any, Replica: faultinject.Any},
	}}))
	// Consecutive write crashes walk the victim healthy → suspect → down;
	// the down transition kicks off the automatic promotion.
	var sawErr bool
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		err := tbl.Put(fmt.Sprintf("live%03d", i), "q", 1, []byte("v"))
		if err != nil {
			sawErr = true
		}
		if err == nil && sawErr {
			break // cutover landed: writes succeed again
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after cutover; last err: %v", err)
		}
	}
	if err := tbl.WaitFailover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.PrimaryNode(); got == victim {
		t.Fatalf("primary still on the down node %d", got)
	}
	if tbl.NodeHealth(victim) != NodeDown {
		t.Fatalf("victim health = %v, want down", tbl.NodeHealth(victim))
	}
	if got := r.Replicas(); got != 2 {
		t.Fatalf("replica count = %d, want 2", got)
	}
	if tbl.FailoverInProgress() {
		t.Fatal("FailoverInProgress still true after convergence")
	}
	// Seed rows survived the cutover.
	for i := 0; i < 5; i++ {
		res, err := readRow(tbl, fmt.Sprintf("seed%d", i), 0)
		if err != nil || len(res.Cells) == 0 {
			t.Fatalf("seed%d lost across failover (err %v)", i, err)
		}
	}
}

func TestWritesToDownPrimaryFailFast(t *testing.T) {
	tbl := failoverTable(t, 2, 1, FailoverConfig{})
	r := tbl.Regions()[0]
	// With 2 nodes the promotion has nowhere to re-seed, but the cutover
	// itself must work; force the down state without promoting first.
	tbl.det.Load().markDown(r.PrimaryNode())
	err := tbl.Put("k", "q", 1, []byte("v"))
	if !errors.Is(err, ErrPrimaryDown) {
		t.Fatalf("write to down primary = %v, want ErrPrimaryDown", err)
	}
	if !tbl.FailoverInProgress() {
		t.Fatal("down primary without cutover should report FailoverInProgress")
	}
}

func TestRejoinEntersAsCatchingUpReplica(t *testing.T) {
	// 3 nodes, factor 2: primary on node 0, replicas on nodes 1 and 2.
	// Killing node 0 promotes one replica and leaves no free healthy node
	// to re-seed on — the region runs under-replicated until the rejoin.
	tbl := failoverTable(t, 3, 2, FailoverConfig{})
	for i := 0; i < 8; i++ {
		if err := tbl.Put(fmt.Sprintf("k%02d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	r := tbl.Regions()[0]
	victim := r.PrimaryNode()
	if err := tbl.FailoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if got := r.Replicas(); got != 1 {
		t.Fatalf("replica count = %d, want 1 (no healthy node free)", got)
	}
	if err := tbl.Put("k99", "q", 1, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RejoinNode(victim); err != nil {
		t.Fatal(err)
	}
	if tbl.NodeHealth(victim) != NodeHealthy {
		t.Fatalf("rejoined node health = %v, want healthy", tbl.NodeHealth(victim))
	}
	if got := r.PrimaryNode(); got == victim {
		t.Fatal("rejoined node must re-enter as a replica, never as primary")
	}
	if got := r.Replicas(); got != 2 {
		t.Fatalf("replica count = %d, want 2 after rejoin", got)
	}
	idx := -1
	for i := 1; i <= r.Replicas(); i++ {
		if r.ReadView(i).NodeID == victim {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatal("rejoined node hosts no replica")
	}
	// The rejoined replica was seeded from the current primary: it has the
	// full history, including writes issued while the node was away.
	rows := scanRows(t, r.ReadView(idx).Store())
	if len(rows) != 9 {
		t.Fatalf("rejoined replica has %d rows, want 9: %v", len(rows), rows)
	}
}

// TestReplicationLagGaugeUnderRace pins the lag-accounting fix: concurrent
// appends, ships (a third of them intercepted, so lag builds up) and
// administrative catch-ups must leave the global gauge exactly equal to the
// real lag (historically the ship and catch-up paths could double-decrement
// when they raced). Run with -race.
func TestReplicationLagGaugeUnderRace(t *testing.T) {
	before := mReplicationLag.Value()
	tbl := newReplTable(t, []string{"m"}, 3)
	if err := tbl.EnableReplication(2); err != nil {
		t.Fatal(err)
	}
	interceptShips(t, tbl, 1.0/3)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := tbl.Put(fmt.Sprintf("w%d-%03d", w, i), "q", 1, []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := tbl.CatchUpReplication(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	if lag := tableLag(tbl); lag != 0 {
		t.Fatalf("lag = %d after final catch-up, want 0", lag)
	}
	if got := mReplicationLag.Value(); got != before {
		t.Fatalf("gauge drifted by %d across a fully caught-up workload", got-before)
	}
}

// TestReplicationLagGaugeAcrossFailover extends the gauge invariant across
// promotions: retire-and-reinstall accounting must not leak.
func TestReplicationLagGaugeAcrossFailover(t *testing.T) {
	before := mReplicationLag.Value()
	tbl := failoverTable(t, 4, 2, FailoverConfig{})
	for i := 0; i < 50; i++ {
		if err := tbl.Put(fmt.Sprintf("k%03d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	victim := tbl.Regions()[0].PrimaryNode()
	if err := tbl.FailoverNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RejoinNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CatchUpReplication(); err != nil {
		t.Fatal(err)
	}
	if lag := tableLag(tbl); lag != 0 {
		t.Fatalf("lag = %d, want 0", lag)
	}
	if got := mReplicationLag.Value(); got != before {
		t.Fatalf("gauge drifted by %d across failover + rejoin", got-before)
	}
}
