package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"", SyncOS, true},
		{"os", SyncOS, true},
		{"group", SyncGroup, true},
		{"fsync", SyncOS, false},
		{"OS", SyncOS, false},
	}
	for _, c := range cases {
		got, err := ParseSyncPolicy(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseSyncPolicy(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if SyncOS.String() != "os" || SyncGroup.String() != "group" {
		t.Errorf("SyncPolicy strings = %q/%q, want os/group", SyncOS, SyncGroup)
	}
}

// randomWALCells builds a deterministic pseudo-random workload with repeated
// rows/qualifiers, multiple versions, tombstones, and empty values — the
// shapes that stress replay ordering and store merge behaviour.
func randomWALCells(rng *rand.Rand, n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		c := Cell{
			Row:       fmt.Sprintf("user|%04d", rng.Intn(40)),
			Qualifier: fmt.Sprintf("q%d", rng.Intn(4)),
			Timestamp: int64(rng.Intn(50) * 100),
			Tombstone: rng.Intn(10) == 0,
		}
		if !c.Tombstone && rng.Intn(8) != 0 {
			c.Value = make([]byte, rng.Intn(64))
			rng.Read(c.Value)
		}
		cells[i] = c
	}
	return cells
}

// replayIntoStore replays the WAL at path into a fresh store and returns the
// store's full raw-cell view (all versions and tombstones, sorted).
func replayIntoStore(t *testing.T, path string) []Cell {
	t.Helper()
	s, err := NewStore(DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := RecoverWAL(path, SyncOS, func(c Cell) error { return s.ApplyBatch([]Cell{c}) }); err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	return s.rawCells()
}

func cellsEqual(a, b []Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Row != b[i].Row || a[i].Qualifier != b[i].Qualifier ||
			a[i].Timestamp != b[i].Timestamp || a[i].Tombstone != b[i].Tombstone ||
			!bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestGroupCommitReplayEquivalence is the write-path equivalence property:
// the same puts in the golden per-put encoding (wal_fuzz_test.go's
// encodeWALFile) and pushed through a GroupCommitWAL in random batch sizes
// must replay into byte-identical stores. 20 seeded trials cover varied
// batch shapes (including runs of single-cell batches, which take the
// per-put record format).
func TestGroupCommitReplayEquivalence(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		cells := randomWALCells(rng, 50+rng.Intn(200))
		dir := t.TempDir()

		perPutPath := filepath.Join(dir, "perput.wal")
		golden, _ := encodeWALFile(cells)
		if err := os.WriteFile(perPutPath, golden, 0o644); err != nil {
			t.Fatal(err)
		}

		groupPath := filepath.Join(dir, "group.wal")
		gw, err := OpenGroupCommitWAL(groupPath, SyncOS)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(cells); {
			hi := lo + 1 + rng.Intn(7)
			if hi > len(cells) {
				hi = len(cells)
			}
			if err := gw.AppendBatch(cells[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}

		want := replayIntoStore(t, perPutPath)
		got := replayIntoStore(t, groupPath)
		if !cellsEqual(want, got) {
			t.Fatalf("trial %d: group-commit replay store (%d cells) differs from per-put replay store (%d cells)", trial, len(got), len(want))
		}
	}
}

// TestGroupCommitSoloWriterLogBytes: a writer that never shares a commit
// group writes single-cell groups, which must use the per-put record format —
// the log file is byte-for-byte the golden per-put encoding.
func TestGroupCommitSoloWriterLogBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cells := randomWALCells(rng, 64)
	dir := t.TempDir()

	groupPath := filepath.Join(dir, "group.wal")
	gw, err := OpenGroupCommitWAL(groupPath, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if err := gw.AppendBatch([]Cell{c}); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	a, _ := encodeWALFile(cells)
	b, err := os.ReadFile(groupPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("solo-writer group-commit log (%d bytes) not byte-identical to the golden per-put encoding (%d bytes)", len(b), len(a))
	}
}

// TestGroupCommitConcurrentAppends hammers one GroupCommitWAL from many
// writers under the fsync-per-group policy: every acknowledged append must
// survive replay with per-writer order intact, and contention must actually
// form multi-cell groups (fewer commits — and far fewer fsyncs — than
// appends).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	const writers, perWriter = 8, 100
	path := filepath.Join(t.TempDir(), "concurrent.wal")
	w, err := OpenGroupCommitWAL(path, SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	commitsBefore := mWALGroupCommits.Value()

	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := make(chan struct{})
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				c := Cell{
					Row:       fmt.Sprintf("w%02d|%04d", wi, i),
					Qualifier: "q",
					Timestamp: int64(i),
					Value:     []byte{byte(wi), byte(i)},
				}
				if err := w.AppendBatch([]Cell{c}); err != nil {
					errs[wi] = err
					return
				}
			}
		}(wi)
	}
	close(start)
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", wi, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	commits := mWALGroupCommits.Value() - commitsBefore
	if commits >= writers*perWriter {
		t.Errorf("group commit never batched: %d commits for %d appends", commits, writers*perWriter)
	}

	var got []Cell
	if err := RecoverWAL(path, SyncOS, func(c Cell) error { got = append(got, c); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(got) != writers*perWriter {
		t.Fatalf("replayed %d cells, want %d", len(got), writers*perWriter)
	}
	// Each writer's own appends must replay in the order it issued them.
	next := make([]int, writers)
	for _, c := range got {
		var wi, i int
		if _, err := fmt.Sscanf(c.Row, "w%02d|%04d", &wi, &i); err != nil {
			t.Fatalf("unexpected row %q: %v", c.Row, err)
		}
		if i != next[wi] {
			t.Fatalf("writer %d: replayed append %d before %d — per-writer order lost", wi, i, next[wi])
		}
		next[wi]++
	}
	t.Logf("%d appends committed in %d groups", writers*perWriter, commits)
}

// TestGroupCommitLeaderDoesNotAliasCaller: a group's leader may hand in a
// sub-slice of a larger buffer; followers joining the group must never be
// appended into that buffer's spare capacity, which is the caller's live
// data. Each writer appends buf[:1] of a two-cell buffer and checks buf[1]
// afterwards. Run with -race, which also sees the write itself.
func TestGroupCommitLeaderDoesNotAliasCaller(t *testing.T) {
	const writers, perWriter = 8, 400
	w, err := OpenGroupCommitWAL(filepath.Join(t.TempDir(), "alias.wal"), SyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	clobbered := make([]int, writers)
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			mine := fmt.Sprintf("spare-of-writer-%d", wi)
			buf := make([]Cell, 2)
			for i := 0; i < perWriter; i++ {
				buf[0] = Cell{Row: fmt.Sprintf("w%02d|%04d", wi, i), Qualifier: "q", Timestamp: int64(i)}
				buf[1] = Cell{Row: mine}
				if err := w.AppendBatch(buf[:1]); err != nil {
					t.Error(err)
					return
				}
				if buf[1].Row != mine {
					clobbered[wi]++
				}
			}
		}(wi)
	}
	wg.Wait()
	for wi, n := range clobbered {
		if n > 0 {
			t.Errorf("writer %d: the cell after its appended sub-slice was overwritten by another writer in %d of %d calls", wi, n, perWriter)
		}
	}
}

// TestGroupCommitSealsAtTheCaps: two callers, each under the record caps,
// would together pass one of them. The second must seal the first's group
// and commit in a group of its own, so that both acknowledged records
// replay. The caps are lowered to room for four of the test's cells, and
// the first group is held open by holding the I/O lock its leader waits
// on.
func TestGroupCommitSealsAtTheCaps(t *testing.T) {
	const perCall = 3
	cell := Cell{Row: "row-00", Qualifier: "q", Value: []byte("value")}
	fourCells := walBatchCountLen + 4*(4+walBodyLen(&cell))
	for _, c := range []struct {
		name        string
		cells, body int
	}{{"cells", 4, maxWALBody}, {"body", maxWALBatchCells, fourCells}} {
		t.Run(c.name, func(t *testing.T) {
			defer func(cells, body int) { maxWALBatchCells, maxWALBody = cells, body }(maxWALBatchCells, maxWALBody)
			maxWALBatchCells, maxWALBody = c.cells, c.body
			path := filepath.Join(t.TempDir(), "seal.wal")
			w, err := OpenGroupCommitWAL(path, SyncOS)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			open := func() *commitGroup {
				w.mu.Lock()
				defer w.mu.Unlock()
				return w.cur
			}
			waitUntil := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatalf("timed out waiting until %s", what)
					}
				}
			}
			errs := make(chan error, 2)
			call := func(k int) {
				cells := make([]Cell, perCall)
				for i := range cells {
					cells[i] = cell
					cells[i].Row = fmt.Sprintf("row-%d%d", k, i)
				}
				errs <- w.AppendBatch(cells)
			}
			w.ioMu.Lock()
			go call(0)
			waitUntil("the first call opens a group", func() bool { return open() != nil })
			first := open()
			go call(1)
			waitUntil("the second call joins or seals it", func() bool {
				w.mu.Lock()
				defer w.mu.Unlock()
				return w.cur != first || len(first.cells) > perCall
			})
			w.ioMu.Unlock()
			for i := 0; i < 2; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			replayed := 0
			if err := RecoverWAL(path, SyncOS, func(Cell) error { replayed++; return nil }); err != nil {
				t.Fatalf("replaying two acknowledged calls: %v", err)
			}
			if replayed != 2*perCall {
				t.Fatalf("replayed %d cells, want %d", replayed, 2*perCall)
			}
		})
	}
}

func TestGroupCommitWALClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.wal")
	w, err := OpenGroupCommitWAL(path, SyncOS)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]Cell{{Row: "r", Qualifier: "q", Timestamp: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if err := w.AppendBatch([]Cell{{Row: "r2", Qualifier: "q", Timestamp: 2}}); err == nil {
		t.Fatal("append to closed WAL must fail")
	}
	var got []Cell
	if err := RecoverWAL(path, SyncOS, func(c Cell) error { got = append(got, c); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Row != "r" {
		t.Fatalf("replay after close = %+v, want the one pre-close cell", got)
	}
}

// TestTableSurfacesFlushError: a put whose memtable later fails to flush is
// not durable in segment form, so the store must report the failure
// instead of claiming the data is safe, and the table must refuse further
// writes through its write pressure.
func TestTableSurfacesFlushError(t *testing.T) {
	opts := DefaultStoreOptions()
	opts.FlushThresholdBytes = 256
	tbl, err := NewTable("sync-err", nil, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := tbl.Regions()[0].Store()
	st.mu.Lock()
	st.flushHook = func(*memtable) error { return fmt.Errorf("disk full (injected)") }
	st.mu.Unlock()

	for i := 0; i < 64; i++ {
		row := fmt.Sprintf("row-%03d", i)
		if err := tbl.Put(row, "q", 1, bytes.Repeat([]byte("x"), 32)); err != nil {
			break // backpressure may surface the flush failure mid-load; WaitMaintenance must still report it
		}
	}
	err = st.WaitMaintenance()
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("WaitMaintenance = %v, want the injected flush failure", err)
	}
	if p := tbl.WritePressure(); p != 1 {
		t.Fatalf("WritePressure = %v after flush failure, want 1", p)
	}
}

// TestTablePutBatch checks batched routing: cells spanning multiple regions
// apply to their owners in input order and replicate like individual puts.
func TestTablePutBatch(t *testing.T) {
	tbl, err := NewTable("batch", []string{"m"}, 2, DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	cells := []Cell{
		{Row: "apple", Qualifier: "q", Timestamp: 1, Value: []byte("a1")},
		{Row: "zebra", Qualifier: "q", Timestamp: 1, Value: []byte("z1")},
		{Row: "apple", Qualifier: "q", Timestamp: 2, Value: []byte("a2")},
		{Row: "mango", Qualifier: "q", Timestamp: 1, Value: []byte("m1")},
	}
	if err := tbl.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string]string{"apple": "a2", "zebra": "z1", "mango": "m1"} {
		res, err := readRow(tbl, row, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := res.Get("q"); string(got) != want {
			t.Errorf("Get(%q) = %q, want %q", row, got, want)
		}
		// Replica view must see the same data (ship batch of 1 ships eagerly).
		rep := tbl.RegionFor(row).ReadView(1)
		rres, err := readRow(rep.Store(), row, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := rres.Get("q"); string(got) != want {
			t.Errorf("replica Get(%q) = %q, want %q", row, got, want)
		}
	}
	if err := tbl.PutBatch([]Cell{{Row: "ok", Qualifier: "q"}, {Row: "", Qualifier: "q"}}); err == nil {
		t.Fatal("PutBatch must reject empty row keys")
	}
	if res, err := readRow(tbl, "ok", 0); err != nil || len(res.Cells) != 0 {
		t.Fatalf("rejected batch must apply nothing, Get(ok) = %+v, %v", res, err)
	}
}

// TestDurableTablePutBatchRecovery: batched puts on a durable table survive a
// crash (reopen replays the batched records through routing).
func TestDurableTablePutBatchRecovery(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "table.wal")
	opts := DefaultStoreOptions()
	tbl, err := OpenDurableTable("visits", []string{"m"}, 2, opts, walPath)
	if err != nil {
		t.Fatal(err)
	}
	var cells []Cell
	for i := 0; i < 40; i++ {
		cells = append(cells, Cell{
			Row:       fmt.Sprintf("user|%02d", i%20),
			Qualifier: "v",
			Timestamp: int64(i),
			Value:     []byte(fmt.Sprintf("visit-%d", i)),
		})
	}
	if err := tbl.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDurableTable("visits", []string{"m"}, 2, opts, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 20; i < 40; i++ { // ts 20..39 are the newest version per row
		row := fmt.Sprintf("user|%02d", i%20)
		res, err := readRow(re, row, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("visit-%d", i)
		if got, _ := res.Get("v"); string(got) != want {
			t.Fatalf("after recovery Get(%q) = %q, want %q", row, got, want)
		}
	}
}

// TestAckedWriteIsInTheFileBeforeClose pins the SyncOS promise ("a process
// crash loses nothing"): once PutBatch returns, a second handle on the log
// replays every acknowledged cell, the table never having been closed — for
// a lone cell (per-put record) and for a batch (batched record), under both
// policies.
func TestAckedWriteIsInTheFileBeforeClose(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncOS, SyncGroup} {
		for _, n := range []int{1, 40} {
			t.Run(fmt.Sprintf("%s/%d", policy, n), func(t *testing.T) {
				walPath := filepath.Join(t.TempDir(), "table.wal")
				opts := DefaultStoreOptions()
				opts.WALSyncPolicy = policy
				tbl, err := OpenDurableTable("visits", []string{"m"}, 2, opts, walPath)
				if err != nil {
					t.Fatal(err)
				}
				defer tbl.Close()
				cells := make([]Cell, n)
				for i := range cells {
					cells[i] = Cell{Row: fmt.Sprintf("user|%02d", i), Qualifier: "v", Timestamp: int64(i), Value: []byte("visit")}
				}
				if err := tbl.PutBatch(cells); err != nil {
					t.Fatal(err)
				}
				if got := replayIntoStore(t, walPath); !cellsEqual(got, cells) {
					t.Fatalf("replay before Close found %d cells, want the %d acknowledged", len(got), n)
				}
			})
		}
	}
}
