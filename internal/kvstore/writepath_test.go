package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"modissense/internal/faultinject"
)

// tableState is the full raw-cell view (all versions and tombstones) of every
// copy a table holds: copies[region][0] is the primary, [1..] the replicas.
func tableState(tbl *Table) [][][]Cell {
	var out [][][]Cell
	for _, r := range tbl.Regions() {
		copies := [][]Cell{r.Store().rawCells()}
		for i := 1; i <= r.Replicas(); i++ {
			copies = append(copies, r.ReadView(i).Store().rawCells())
		}
		out = append(out, copies)
	}
	return out
}

// primaries flattens the primaries of a table state into one sorted cell list
// (regions are in key order), so tables with different pre-splits compare.
func primaries(state [][][]Cell) []Cell {
	var out []Cell
	for _, copies := range state {
		out = append(out, copies[0]...)
	}
	return out
}

// decidesSoFar reads how many times the injector has decided the target,
// without access to its counters: every schedule in this file carries a
// marker rule (a ScanError on op=put at target-local operation 1 exactly), so
// probing the target until the marker answers tells where its counter stood.
// Only counts of 0 and 1 are told apart from "more".
func decidesSoFar(inj *faultinject.Injector, op faultinject.Op) int {
	for probe := 0; probe < 2; probe++ {
		if errors.Is(inj.Decide(op).Err, faultinject.ErrInjectedScan) {
			return 1 - probe
		}
	}
	return 2
}

// TestRejectedWriteLeavesNoTrace pins the order of the write path: admission
// comes before the log, for every entry point. A write answered with an error
// by the fence, the primary's health or an injected put fault is not
// readable on any copy, did not reach the log, and is still absent after a
// reboot over the same log; admission ran exactly once per region run.
func TestRejectedWriteLeavesNoTrace(t *testing.T) {
	// Every cell of the call under test carries this timestamp; nothing else
	// does, so "no trace" is "no raw cell with it, anywhere".
	const mark = 777
	put := func(row string) Cell { return Cell{Row: row, Qualifier: "q", Timestamp: mark, Value: []byte("late")} }
	cases := []struct {
		name string
		// down marks region 1's primary node down (no promotion) first.
		down bool
		// crashSecondRun injects one op=put crash on region 1's first admission.
		crashSecondRun bool
		call           func(tbl *Table) error
		want           error
		// decides is the admissions the injector must have seen per region.
		decides [2]int
	}{
		{name: "Put", down: true, want: ErrPrimaryDown,
			call: func(tbl *Table) error { return tbl.Put("z1", "q", mark, []byte("late")) }},
		{name: "PutFenced stale epoch", want: ErrEpochFenced,
			call: func(tbl *Table) error { return tbl.PutFenced("a1", "q", mark, []byte("late"), 7) }},
		{name: "Delete", down: true, want: ErrPrimaryDown,
			call: func(tbl *Table) error {
				return tbl.PutBatch([]Cell{{Row: "z0", Qualifier: "q", Timestamp: mark, Tombstone: true}})
			}},
		{name: "PutBatch one region", down: true, want: ErrPrimaryDown,
			call: func(tbl *Table) error { return tbl.PutBatch([]Cell{put("z1"), put("z2")}) }},
		{name: "PutBatch healthy then down region", down: true, want: ErrPrimaryDown, decides: [2]int{1, 0},
			call: func(tbl *Table) error { return tbl.PutBatch([]Cell{put("a1"), put("z1")}) }},
		{name: "PutBatch put fault on second run", crashSecondRun: true, want: faultinject.ErrInjectedCrash, decides: [2]int{1, 1},
			call: func(tbl *Table) error { return tbl.PutBatch([]Cell{put("a1"), put("a2"), put("z1")}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walPath := filepath.Join(t.TempDir(), "table.wal")
			tbl, err := OpenDurableTable("no-trace", []string{"m"}, 4, DefaultStoreOptions(), walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.EnableReplication(2); err != nil {
				t.Fatal(err)
			}
			if err := tbl.EnableFailover(FailoverConfig{}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.PutBatch([]Cell{{Row: "a0", Qualifier: "q", Timestamp: 1}, {Row: "z0", Qualifier: "q", Timestamp: 1}}); err != nil {
				t.Fatal(err)
			}
			regions := tbl.Regions()
			det := tbl.det.Load()
			if tc.down {
				det.markDown(regions[1].PrimaryNode())
			}
			rules := []faultinject.Rule{{Fault: faultinject.ScanError, Op: faultinject.OpPut,
				Node: faultinject.Any, Region: faultinject.Any, Replica: faultinject.Any, FromOp: 1, ToOp: 2}}
			if tc.crashSecondRun {
				rules = append(rules, faultinject.Rule{Fault: faultinject.Crash, Op: faultinject.OpPut,
					Node: faultinject.Any, Region: regions[1].ID, Replica: faultinject.Any, ToOp: 1})
			}
			inj := faultinject.New(faultinject.Schedule{Seed: 1, Rules: rules})
			tbl.SetFaultInjector(inj)
			before := tableState(tbl)
			logged := mWALGroupCells.Value()

			if err := tc.call(tbl); !errors.Is(err, tc.want) {
				t.Fatalf("call = %v, want %v", err, tc.want)
			}

			tbl.SetFaultInjector(nil)
			for i, r := range regions {
				op := faultinject.Op{Kind: faultinject.OpPut, Node: r.PrimaryNode(), Region: r.ID}
				if got := decidesSoFar(inj, op); got != tc.decides[i] {
					t.Errorf("region %d was admitted through the injector %d times, want %d", r.ID, got, tc.decides[i])
				}
				wantFails := 0
				if tc.crashSecondRun && i == 1 {
					wantFails = 1
				}
				if node := r.PrimaryNode(); det.health(node) != NodeDown && det.nodes[node].fails != wantFails {
					t.Errorf("detector holds %d failures against node %d, want %d", det.nodes[node].fails, node, wantFails)
				}
			}
			if got := mWALGroupCells.Value(); got != logged {
				t.Errorf("kvstore_wal_group_cells_total moved by %d on a rejected write", got-logged)
			}
			after := tableState(tbl)
			for ri := range after {
				for ci := range after[ri] {
					if !cellsEqual(after[ri][ci], before[ri][ci]) {
						t.Errorf("region %d copy %d changed on a rejected write: %+v", ri, ci, after[ri][ci])
					}
				}
			}

			if err := tbl.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenDurableTable("no-trace", []string{"m"}, 4, DefaultStoreOptions(), walPath)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for _, c := range primaries(tableState(re)) {
				if c.Timestamp == mark {
					t.Errorf("rejected cell %q resurrected by the reboot", c.Row)
				}
			}
			if got := len(primaries(tableState(re))); got != 2 {
				t.Errorf("reboot recovered %d cells, want the 2 acknowledged ones", got)
			}
		})
	}
}

// TestOneAtATimeEqualsBatched is the write-path equivalence property: the
// same random put/tombstone sequence written (a) one Put / Delete at a time
// and (b) as PutBatch chunks of random size leaves identical tables — on the
// primaries, on every replica once caught up, and after reopening either log
// (each log replays into the other table's state). The one-at-a-time log is
// byte for byte the golden per-put encoding, so both record formats written
// before this write path existed still replay to the same contents.
func TestOneAtATimeEqualsBatched(t *testing.T) {
	splits := []string{"user|0010", "user|0020", "user|0030"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells := randomWALCells(rng, 100+rng.Intn(200))
		dir := t.TempDir()
		open := func(name string, splits []string) *Table {
			tbl, err := OpenDurableTable("equiv", splits, 4, DefaultStoreOptions(), filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			return tbl
		}
		one, batched := open("one.wal", splits), open("batched.wal", splits)
		// A random share of the shipments is intercepted, so the replicas
		// lag by varying tails until the catch-up below.
		for _, tbl := range []*Table{one, batched} {
			if err := tbl.EnableReplication(2); err != nil {
				t.Fatal(err)
			}
			interceptShips(t, tbl, float64(1+rng.Intn(7))/8)
		}
		for _, c := range cells {
			var err error
			if c.Tombstone {
				err = one.PutBatch([]Cell{{Row: c.Row, Qualifier: c.Qualifier, Timestamp: c.Timestamp, Tombstone: true}})
			} else {
				err = one.Put(c.Row, c.Qualifier, c.Timestamp, c.Value)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for lo := 0; lo < len(cells); {
			hi := min(lo+1+rng.Intn(24), len(cells))
			if err := batched.PutBatch(cells[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}

		var live [2][]Cell
		for i, tbl := range []*Table{one, batched} {
			if err := tbl.CatchUpReplication(); err != nil {
				t.Fatal(err)
			}
			state := tableState(tbl)
			for ri, copies := range state {
				for ci := 1; ci < len(copies); ci++ {
					if !cellsEqual(copies[ci], copies[0]) {
						t.Fatalf("seed %d table %d: region %d replica %d differs from its primary", seed, i, ri, ci)
					}
				}
			}
			live[i] = primaries(state)
			if err := tbl.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if len(live[0]) == 0 || !cellsEqual(live[0], live[1]) {
			t.Fatalf("seed %d: one-at-a-time table (%d cells) differs from the batched one (%d cells)", seed, len(live[0]), len(live[1]))
		}

		golden, _ := encodeWALFile(cells)
		if got, err := os.ReadFile(filepath.Join(dir, "one.wal")); err != nil || !bytes.Equal(got, golden) {
			t.Fatalf("seed %d: one-at-a-time log is not the golden per-put encoding (err %v)", seed, err)
		}
		// Reopen each log — under a different pre-split, so the replay routes —
		// and compare it with the other table's live state.
		for i, name := range []string{"one.wal", "batched.wal"} {
			re := open(name, []string{"user|0025"})
			got := primaries(tableState(re))
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if !cellsEqual(got, live[1-i]) {
				t.Fatalf("seed %d: %s replays to %d cells, the other table held %d", seed, name, len(got), len(live[1-i]))
			}
		}
	}
}

// benchWriteTable is the table the write-path benchmark and allocation pin
// share: durable under SyncOS, 16 regions over the benchmark's user-key space.
func benchWriteTable(tb testing.TB) *Table {
	tb.Helper()
	var splits []string
	for i := 1; i < 16; i++ {
		splits = append(splits, fmt.Sprintf("u%012d", i*5000/16))
	}
	tbl, err := OpenDurableTable("bench-write", splits, 4, DefaultStoreOptions(), filepath.Join(tb.TempDir(), "table.wal"))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tbl.Close() })
	return tbl
}

// benchWriteCells builds n visit-shaped cells by uniformly spread users.
func benchWriteCells(n int) []Cell {
	value := []byte(`{"user_id":42,"time":1430000000,"grade":4.2,"network":"facebook"}`)
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Row: fmt.Sprintf("u%012d|t%013d", (i*7919)%5000, i), Qualifier: "v", Timestamp: int64(i + 1), Value: value}
	}
	return cells
}

// BenchmarkTableWrite measures the one write path per cell: "one" through
// Put, "batch50" through PutBatch calls of 50 cells by 50 different users.
func BenchmarkTableWrite(b *testing.B) {
	b.Run("one", func(b *testing.B) {
		tbl, cells := benchWriteTable(b), benchWriteCells(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for _, c := range cells {
			if err := tbl.Put(c.Row, c.Qualifier, c.Timestamp, c.Value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch50", func(b *testing.B) {
		tbl, cells := benchWriteTable(b), benchWriteCells(b.N*50)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tbl.PutBatch(cells[i*50 : (i+1)*50]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTablePutAllocs pins what folding Put into the batch path may cost: a
// one-cell Put on a durable table allocates no more than the single-cell
// routine it replaced did (7 per call, measured on the parent commit with
// this test).
func TestTablePutAllocs(t *testing.T) {
	const runs, parentAllocs = 500, 7
	tbl, cells := benchWriteTable(t), benchWriteCells(runs+1)
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		c := cells[i]
		i++
		if err := tbl.Put(c.Row, c.Qualifier, c.Timestamp, c.Value); err != nil {
			t.Fatal(err)
		}
	})
	if got > parentAllocs {
		t.Fatalf("Table.Put allocates %.1f times per call, the routine it replaced %d", got, parentAllocs)
	}
}
