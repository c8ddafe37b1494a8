package kvstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/exec"
	"modissense/internal/obs"
)

// TestSplitDuringExecRegionsSeesConsistentSnapshot is the regression test
// for the split-vs-region-function race: a region function paused mid-scan
// must keep reading its full pre-split key range even though SplitRegion
// swaps the region's store underneath it.
func TestSplitDuringExecRegionsSeesConsistentSnapshot(t *testing.T) {
	tbl := newTestTable(t, nil, 2)
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The region function counts rows like countRows but parks at a channel
	// rendezvous after the first row, letting the test interleave a
	// SplitRegion with it deterministically.
	checkin := make(chan struct{}, 1) // the region function signals it is mid-scan
	resume := make(chan struct{})     // closed by the test to let the scan continue
	outc := make(chan []RegionResult[int], 1)
	go func() {
		outc <- ExecRegions(context.Background(), tbl, ReadOptions{}, func(ctx context.Context, r *Region) (int, error) {
			count := 0
			err := r.Store().MultiScanCtx(ctx, []ScanRange{{}}, 0, func(RowResult) bool {
				if count == 0 {
					checkin <- struct{}{}
					<-resume
				}
				count++
				return true
			})
			return count, err
		})
	}()
	// Wait until the region function is mid-scan, split under it, then resume.
	select {
	case <-checkin:
	case <-time.After(10 * time.Second):
		t.Fatal("region function never started scanning")
	}
	if err := tbl.SplitRegion("m"); err != nil {
		t.Fatal(err)
	}
	close(resume)
	results := <-outc
	requireNoRegionErr(t, results)
	// The fan-out started before the split: it saw ONE region holding all 26
	// rows, not the post-split half.
	if len(results) != 1 {
		t.Fatalf("fan-out saw %d regions, want 1 (pre-split snapshot)", len(results))
	}
	if got := results[0].Value; got != 26 {
		t.Errorf("region function counted %d rows, want all 26 despite concurrent split", got)
	}
	// And the table itself now has the split applied with all data intact.
	if got := tbl.NumRegions(); got != 2 {
		t.Fatalf("regions after split = %d, want 2", got)
	}
	rows := 0
	if err := tbl.Scan(ScanOptions{}, func(RowResult) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if rows != 26 {
		t.Errorf("rows after split = %d, want 26", rows)
	}
}

// TestExecRegionsMatchesSequential: the pooled fan-out returns, in region key
// order, exactly what calling the region function on each region in turn
// returns.
func TestExecRegionsMatchesSequential(t *testing.T) {
	tbl := newTestTable(t, []string{"f", "m", "t"}, 4)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("%c%04d", 'a'+byte(rng.Intn(26)), rng.Intn(10000))
		if err := tbl.Put(key, "q", int64(i+1), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	par := ExecRegions(context.Background(), tbl, ReadOptions{}, countRows)
	requireNoRegionErr(t, par)
	regions := tbl.Regions()
	if len(regions) != len(par) {
		t.Fatalf("result lengths differ: %d regions vs %d results", len(regions), len(par))
	}
	for i, r := range regions {
		want, err := countRows(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Region.ID != r.ID {
			t.Errorf("result %d region order differs: %d vs %d", i, par[i].Region.ID, r.ID)
		}
		if par[i].Value != want {
			t.Errorf("result %d value differs: %v vs %v", i, par[i].Value, want)
		}
	}
}

func TestExecRegionsRunsRegionsInParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	tbl := newTestTable(t, []string{"m"}, 2)
	st := &exec.Stats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	// The region function blocks until two regions are executing
	// simultaneously, proving real parallelism.
	var arrivals atomic.Int32
	barrier := make(chan struct{})
	results := ExecRegions(ctx, tbl, ReadOptions{}, func(context.Context, *Region) (struct{}, error) {
		if arrivals.Add(1) == 2 {
			close(barrier)
		}
		select {
		case <-barrier:
			return struct{}{}, nil
		case <-time.After(10 * time.Second):
			return struct{}{}, fmt.Errorf("barrier timeout: regions did not run concurrently")
		}
	})
	requireNoRegionErr(t, results)
	snap := st.Snapshot()
	if snap.Goroutines < 2 {
		t.Errorf("Stats.Goroutines = %d, want >= 2", snap.Goroutines)
	}
	if snap.Tasks != 2 {
		t.Errorf("Stats.Tasks = %d, want 2", snap.Tasks)
	}
}

func TestExecRegionsReportsAllErrors(t *testing.T) {
	tbl := newTestTable(t, []string{"m"}, 2)
	refused := errors.New("refused")
	res := ExecRegions(context.Background(), tbl, ReadOptions{}, func(_ context.Context, r *Region) (int, error) {
		return 0, fmt.Errorf("region %d: %w", r.ID, refused)
	})
	if len(res) != 2 {
		t.Fatalf("want 2 region results even on failure, got %d", len(res))
	}
	for i, r := range res {
		// No first-error abort, and each region's error says both that its
		// attempts ran out and why the last one failed.
		if !errors.Is(r.Err, exec.ErrAttemptsExhausted) || !errors.Is(r.Err, refused) {
			t.Errorf("region %d err = %v, want attempts exhausted wrapping the refusal", i, r.Err)
		}
		if r.Meta.Attempts != 1 || r.Meta.Replica != -1 {
			t.Errorf("region %d meta = %+v, want one failed attempt", i, r.Meta)
		}
	}
}

func TestScanCtxCancellationMidScan(t *testing.T) {
	tbl := newTestTable(t, nil, 1)
	for i := 0; i < 2000; i++ {
		if err := tbl.Put(fmt.Sprintf("row-%06d", i), "q", 1, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err := tbl.ScanCtx(ctx, ScanOptions{}, func(RowResult) bool {
		seen++
		if seen == 10 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanCtx after mid-scan cancel: err = %v, want context.Canceled", err)
	}
	// Cancellation is polled every ctxPollInterval rows (promptly, not
	// instantly), so at most one interval's worth of rows may still be
	// delivered after cancel fires.
	if seen < 10 || seen > 10+ctxPollInterval {
		t.Errorf("scan delivered %d rows after cancellation at row 10, want within %d", seen, 10+ctxPollInterval)
	}
	// Cancellation also propagates through a region fan-out.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	for _, r := range ExecRegions(ctx2, tbl, ReadOptions{}, countRows) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("ExecRegions with cancelled ctx: region %d err = %v, want context.Canceled", r.Region.ID, r.Err)
		}
	}
}

// TestTableScanAcrossRegionBoundary pins what Scan's options mean now that
// Scan is the one-range case of MultiScanCtx: Limit, AsOf, an early stop and
// a cancellation that each take effect in a later region than the scan
// started in, and bounds that select nothing.
func TestTableScanAcrossRegionBoundary(t *testing.T) {
	tbl := newTestTable(t, []string{"e", "j", "o"}, 4)
	for c := byte('a'); c <= 'z'; c++ {
		for ts, v := range []string{"v1", "v2"} {
			if err := tbl.Put(string(c), "q", int64(ts+1), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tbl.PutBatch([]Cell{{Row: "k", Qualifier: "q", Timestamp: 2, Tombstone: true}}); err != nil {
		t.Fatal(err)
	}
	scan := func(ctx context.Context, opts ScanOptions, keepGoing func(row string) bool) (string, error) {
		got := ""
		err := tbl.ScanCtx(ctx, opts, func(r RowResult) bool {
			v, _ := r.Get("q")
			got += r.Row + "=" + string(v) + " "
			return keepGoing == nil || keepGoing(r.Row)
		})
		return got, err
	}
	bg := context.Background()
	for _, tc := range []struct {
		name string
		opts ScanOptions
		stop string // the callback returns false on this row
		want string
	}{
		{name: "limit", opts: ScanOptions{StartRow: "c", Limit: 4}, want: "c=v2 d=v2 e=v2 f=v2 "},
		{name: "as-of sees the deleted row's old version", opts: ScanOptions{StartRow: "i", StopRow: "l", AsOf: 1}, want: "i=v1 j=v1 k=v1 "},
		{name: "newest view hides the deleted row", opts: ScanOptions{StartRow: "i", StopRow: "l"}, want: "i=v2 j=v2 "},
		{name: "early stop", opts: ScanOptions{StartRow: "n"}, stop: "p", want: "n=v2 o=v2 p=v2 "},
		{name: "early stop before the limit", opts: ScanOptions{StartRow: "n", Limit: 9}, stop: "o", want: "n=v2 o=v2 "},
		{name: "inverted bounds", opts: ScanOptions{StartRow: "q", StopRow: "c"}},
		{name: "empty bounds", opts: ScanOptions{StartRow: "q", StopRow: "q"}},
	} {
		got, err := scan(bg, tc.opts, func(row string) bool { return row != tc.stop })
		if err != nil || got != tc.want {
			t.Errorf("%s: scan = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
	// A cancellation in the second region ends the scan with the context's
	// error no later than the next region's first poll.
	ctx, cancel := context.WithCancel(bg)
	got, err := scan(ctx, ScanOptions{}, func(row string) bool {
		if row == "f" {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("scan cancelled in its second region: err = %v, want context.Canceled", err)
	}
	if want := "a=v2 b=v2 c=v2 d=v2 e=v2 f=v2 g=v2 h=v2 i=v2 "; got != want {
		t.Errorf("cancelled scan delivered %q, want %q (the rest of the region it was in, nothing of the next)", got, want)
	}
}

// TestTableConcurrentSplitPutScanExecRegions is the -race stress of the
// region protocol: Put, Scan, ExecRegions and SplitRegion all hammering one
// table concurrently.
func TestTableConcurrentSplitPutScanExecRegions(t *testing.T) {
	tbl := newTestTable(t, []string{"m"}, 4)
	for c := byte('a'); c <= 'z'; c++ {
		if err := tbl.Put(string(c)+"000", "q", 1, []byte("seed")); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 7)
	stop := make(chan struct{})
	// Writers.
	for w := 0; w < 2; w++ {
		w := w
		go func() {
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("%c%03d", 'a'+byte((w*11+i)%26), i)
				if err := tbl.Put(key, "q", int64(i+2), []byte("value")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	// Scanners.
	for s := 0; s < 2; s++ {
		go func() {
			for i := 0; i < 60; i++ {
				if err := tbl.ScanCtx(context.Background(), ScanOptions{}, func(RowResult) bool { return true }); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	// Parallel region fan-outs.
	for c := 0; c < 2; c++ {
		go func() {
			for i := 0; i < 40; i++ {
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
	// Splitter: keeps cutting fresh boundaries while everything runs.
	go func() {
		defer close(stop)
		splits := []string{"g", "t", "c", "p", "j", "w", "e"}
		for _, k := range splits {
			if err := tbl.SplitRegion(k); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 7; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	<-stop
	// Every seed row survived every split.
	rows := map[string]bool{}
	if err := tbl.Scan(ScanOptions{}, func(r RowResult) bool { rows[r.Row] = true; return true }); err != nil {
		t.Fatal(err)
	}
	for c := byte('a'); c <= 'z'; c++ {
		if !rows[string(c)+"000"] {
			t.Errorf("seed row %q lost during concurrent splits", string(c)+"000")
		}
	}
}
