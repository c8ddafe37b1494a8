package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modissense/client"
	"modissense/internal/faultinject"
	"modissense/internal/kvstore"
	"modissense/internal/matview"
	"modissense/internal/model"
)

// The crash checker's run: writers × batches check-in batches of items each,
// and at most crashPairs cut pairs checked.
const (
	crashWriters = 4
	crashBatches = 6
	crashItems   = 4
	crashPairs   = 40
)

// crashBase is the time of the run's first check-in; item i of batch b is
// at crashBase + (b*crashItems + i) seconds, so a row's time names its batch.
var crashBase = time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC).UnixMilli()

// crashConfig is the durable platform of the checker over dir: small
// memtables, so flushes and compactions run mid-run.
func crashConfig(dir string) Config {
	cfg := testConfig()
	cfg.WALDir, cfg.WALSync, cfg.MemtableFlushBytes = dir, "os", 256
	return cfg
}

// TestCrashPoints checks a durable platform's crash states against the
// contract of DESIGN.md §11, *Crash points* (after ALICE: Pillai et al.,
// "All File Systems Are Not Created Equal", OSDI 2014). Concurrent writers
// push check-in batches through the typed client; an op=put schedule
// refuses some, and a HotIn refresh halfway gives the visited POIs a second
// document version. Without Close, the test copies visits.wal and
// visits.wal.docs and cuts each at every record boundary and at one torn
// byte inside each record. Each pair of cuts, sampled by a fixed seed past
// crashPairs, is a subtest named docs=<d>[+torn]/visits=<v>[+torn]: d and v
// whole records survive, and +torn leaves a part of the next one.
func TestCrashPoints(t *testing.T) {
	runDir := t.TempDir()
	p, err := New(crashConfig(runDir))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()
	p.Visits.Table().SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 5, Rules: []faultinject.Rule{
		{Fault: faultinject.Crash, Op: faultinject.OpPut, Node: faultinject.Any, Region: faultinject.Any, Replica: faultinject.Any, Prob: 0.2},
	}}))

	writers := make([]*client.Client, crashWriters)
	users := make([]int64, crashWriters)
	for w := range writers {
		c, err := client.New(srv.URL, srv.Client())
		if err == nil {
			var s client.Session
			s, err = c.SignIn("facebook", fmt.Sprintf("facebook:%d", w+1))
			writers[w], users[w] = c, s.UserID
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// acked holds each acked batch's visits, nil for a refused one.
	acked := make([][]model.Visit, crashWriters*crashBatches)
	var refused atomic.Int64
	half := func(h int) {
		var wg sync.WaitGroup
		for w, c := range writers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := w*crashBatches + h*crashBatches/2; b < w*crashBatches+(h+1)*crashBatches/2; b++ {
					items := make([]client.Checkin, crashItems)
					visits := make([]model.Visit, crashItems)
					for i := range items {
						poi, _ := p.POIs.Get(p.Catalog()[(b*3+i)%40].ID)
						items[i] = client.Checkin{POIID: poi.ID, Time: crashBase + int64(b*crashItems+i)*1000, Grade: float64(1 + (b+i)%5), Network: "facebook"}
						visits[i] = model.Visit{UserID: users[w], Time: items[i].Time, Grade: items[i].Grade, Network: "facebook", POI: poi}
					}
					var apiErr *client.APIError
					res, err := c.PushCheckins(items)
					switch {
					case err == nil && res.Stored == crashItems:
						acked[b] = visits
					case errors.As(err, &apiErr) && apiErr.Status == 500:
						refused.Add(1)
					default:
						t.Errorf("batch %d: stored %d, %v; want all or a refusal", b, res.Stored, err)
					}
				}
			}()
		}
		wg.Wait()
	}
	half(0)
	if _, err := writers[0].AdminHotIn(time.UnixMilli(crashBase-3600e3), time.UnixMilli(crashBase+3600e3)); err != nil {
		t.Fatal(err)
	}
	half(1)
	if err := p.Visits.Table().WaitMaintenance(); err != nil {
		t.Fatal(err)
	}
	var flushes, compactions uint64
	for _, r := range p.Visits.Table().Regions() {
		flushes, compactions = flushes+r.Store().Stats().Flushes, compactions+r.Store().Stats().BackgroundCompactions
	}
	if n := int(refused.Load()); flushes == 0 || compactions == 0 || n == 0 || n == len(acked) {
		t.Fatalf("the run had %d flushes, %d compactions and %d refused batches of %d; want some of each, and some acked", flushes, compactions, n, len(acked))
	}

	// The crash: copy both logs without closing the platform.
	visLog, err := os.ReadFile(filepath.Join(runDir, "visits.wal"))
	docLog, derr := os.ReadFile(filepath.Join(runDir, "visits.wal.docs"))
	if err != nil || derr != nil && !os.IsNotExist(derr) {
		t.Fatal(err, derr)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	visEnds, visRecs := walRecords(t, visLog)
	docEnds, docRecs := walRecords(t, docLog)

	// Every acked batch is one visits record's, and no refused one is any.
	recordOf := map[int]int{}
	for k, rec := range visRecs {
		for _, c := range rec {
			tm, _, _, err := keyedRowRef(c)
			if b := int((tm - crashBase) / 1000 / crashItems); err != nil || b < 0 || b >= len(acked) || acked[b] == nil {
				t.Fatalf("visits record %d holds row %q (%v), of no acked batch", k, c.Row, err)
			} else if r, ok := recordOf[b]; ok && r != k {
				t.Fatalf("batch %d is split over visits records %d and %d", b, r, k)
			} else {
				recordOf[b] = k
			}
		}
	}
	if n := len(acked) - int(refused.Load()); len(recordOf) != n {
		t.Fatalf("the visits log holds %d batches, %d were acked", len(recordOf), n)
	}

	type cut struct {
		name  string
		whole int // records that survive whole
		bytes int
	}
	cuts := func(ends []int) []cut {
		var cs []cut
		for k, start := 0, 0; k <= len(ends); k++ {
			cs = append(cs, cut{strconv.Itoa(k), k, start})
			if k < len(ends) {
				cs = append(cs, cut{strconv.Itoa(k) + "+torn", k, start + 1 + k*131%(ends[k]-start-1)})
				start = ends[k]
			}
		}
		return cs
	}
	dc, vc := cuts(docEnds), cuts(visEnds)
	// The complete logs, a torn visits tail and a torn documents tail
	// always run; a sample of the other pairs follows.
	pairs := [][2]cut{{dc[len(dc)-1], vc[len(vc)-1]}, {dc[len(dc)-1], vc[len(vc)-2]}, {dc[max(len(dc)-2, 0)], vc[0]}}
	rng := rand.New(rand.NewSource(1))
	for _, i := range rng.Perm(len(dc) * len(vc))[:min(crashPairs, len(dc)*len(vc))] {
		pairs = append(pairs, [2]cut{dc[i/len(vc)], vc[i%len(vc)]})
	}
	for n, pair := range pairs {
		d, v := pair[0], pair[1]
		t.Run("docs="+d.name+"/visits="+v.name, func(t *testing.T) {
			held := map[string]bool{}
			for _, rec := range docRecs[:d.whole] {
				for _, c := range rec {
					held[c.Row] = true
				}
			}
			want := map[[2]int64]model.Visit{}
			var uncovered []string
			for _, rec := range visRecs[:v.whole] {
				for _, c := range rec {
					tm, id, hash, _ := keyedRowRef(c)
					b := int((tm - crashBase) / 1000 / crashItems)
					for _, vis := range acked[b] {
						want[[2]int64{vis.UserID, vis.Time}] = vis
					}
					if !held[strconv.FormatInt(id, 10)+"|"+strconv.FormatUint(hash, 16)] {
						uncovered = append(uncovered, fmt.Sprintf("visit row %q names a document of POI %d ", c.Row, id))
					}
				}
			}
			if n == 0 && len(uncovered) > 0 {
				t.Fatalf("the complete logs break the documents-first rule: %s", uncovered[0])
			}
			dir := t.TempDir()
			for name, b := range map[string][]byte{"visits.wal": visLog[:v.bytes], "visits.wal.docs": docLog[:d.bytes]} {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cfg := crashConfig(dir)
			if strings.HasSuffix(v.name, "+torn") {
				cfg.WALSync = "group" // the visits log's cut is synced
			}
			re, err := New(cfg)
			if len(uncovered) > 0 {
				if err == nil {
					re.Close()
					t.Fatalf("booted although %d visit rows name a document the documents log lacks", len(uncovered))
				}
				if !slices.ContainsFunc(uncovered, func(u string) bool { return strings.Contains(err.Error(), u) }) {
					t.Fatalf("boot error %q names none of the visit rows %q", err, uncovered)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			seqs, top := checkRecovered(t, re, want)
			// A push after the reboot, at POIs the run never visited, so
			// the documents log is appended to as well.
			var pushed []model.Visit
			for i, poi := range re.Catalog()[100:102] {
				pushed = append(pushed, model.Visit{UserID: 1, Time: crashBase + int64(len(acked)*crashItems+i)*1000, Grade: 3, Network: "facebook", POI: poi})
				want[[2]int64{1, pushed[i].Time}] = pushed[i]
			}
			if err := re.Visits.StoreBatch(pushed); err != nil {
				t.Fatalf("push after the reboot: %v", err)
			}
			after, _ := checkRecovered(t, re, want)
			for key, s := range after {
				if _, old := seqs[key]; !old && s <= top {
					t.Errorf("a visit pushed after the reboot took sequence number %d, at or below the recovered %d", s, top)
				}
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			if re, err = New(cfg); err != nil {
				t.Fatalf("second reboot: %v", err)
			}
			defer re.Close()
			checkRecovered(t, re, want)
		})
	}
}

// walRecords splits a whole log into its records' end offsets and each
// record's cells.
func walRecords(t *testing.T, log []byte) (ends []int, recs [][]kvstore.Cell) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "record")
	for off := 0; off < len(log); off = ends[len(ends)-1] {
		end := min(off+8+int(binary.LittleEndian.Uint32(log[off+4:])&^(1<<31)), len(log))
		var rec []kvstore.Cell
		if err := os.WriteFile(path, log[off:end], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := kvstore.RecoverWAL(path, kvstore.SyncOS, func(c kvstore.Cell) error { rec = append(rec, c); return nil }); err != nil || len(rec) == 0 {
			t.Fatalf("the record at %d of a %d-byte log holds no cell (%v)", off, len(log), err)
		}
		ends, recs = append(ends, end), append(recs, rec)
	}
	return ends, recs
}

// checkRecovered holds a booted platform to the visits it must hold, by
// user and time: its table holds one row for each, which reads back as the
// visit with the document it was pushed with, and its trending view's
// totals equal a rebuild from those rows. It returns each row's sequence
// number, by user and time, and the highest.
func checkRecovered(t *testing.T, p *Platform, want map[[2]int64]model.Visit) (seqs map[[2]int64]uint32, top uint32) {
	t.Helper()
	seqs = map[[2]int64]uint32{}
	rows := 0
	if err := p.Visits.Table().Scan(kvstore.ScanOptions{}, func(r kvstore.RowResult) bool {
		user, tm, seq, err := visitKeyFields(r.Row)
		seqs[[2]int64{user, tm}], rows, top = seq, rows+1, max(top, seq)
		return err == nil
	}); err != nil {
		t.Fatal(err)
	}
	got := map[[2]int64]model.Visit{}
	rebuilt := map[int64][2]int64{}
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		got[[2]int64{v.UserID, v.Time}] = v
		rebuilt[v.POI.ID] = [2]int64{rebuilt[v.POI.ID][0] + 1, rebuilt[v.POI.ID][1] + model.GradeUnits(v.Grade)}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != len(want) || !reflect.DeepEqual(got, want) {
		t.Fatalf("the table holds %d rows, %d visits by user and time; want the %d visits of the surviving acked batches", rows, len(got), len(want))
	}
	aggs, _ := p.MatView.TopK(matview.TopKSpec{FromMillis: crashBase - 3600e3, ToMillis: crashBase + 86400e3})
	viewed := map[int64][2]int64{}
	for _, a := range aggs {
		viewed[a.POI.ID] = [2]int64{int64(a.Visits), a.GradeUnits}
	}
	if !reflect.DeepEqual(viewed, rebuilt) {
		t.Fatalf("the trending view holds %v, a rebuild from the table %v", viewed, rebuilt)
	}
	return seqs, top
}
