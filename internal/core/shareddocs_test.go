package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
)

// pushSharedDocVisits boots a durable platform over dir, pushes check-ins at
// five POIs, refreshes HotIn so their documents change, pushes again at the
// same POIs, and closes the platform. It returns the document each visit was
// stored with, by visit time. Every visit is by the user of facebook:3, with
// grade 4 over network facebook.
func pushSharedDocVisits(t *testing.T, dir string) map[int64]model.POI {
	t.Helper()
	cfg := testConfig()
	cfg.WALDir = dir
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, token, err := p.Users.SignIn("facebook", "facebook:3")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2015, 6, 1, 12, 0, 0, 0, time.UTC)
	stored := map[int64]model.POI{}
	push := func(round int) {
		var items []CheckinPush
		for i, poi := range p.Catalog()[:5] {
			ts := base.Add(time.Duration(round*10+i) * time.Minute).UnixMilli()
			// Unequal visit counts make the refreshed hotness differ per POI.
			for n := 0; n <= i; n++ {
				items = append(items, CheckinPush{POIID: poi.ID, Time: ts + int64(n), Grade: 4, Network: "facebook"})
				stored[ts+int64(n)], _ = p.POIs.Get(poi.ID)
			}
		}
		if n, errs, err := p.PushCheckins(token, items); err != nil || n != len(items) || len(errs) != 0 {
			t.Fatalf("push: stored %d of %d, %v, %v", n, len(items), errs, err)
		}
	}
	push(0)
	if _, err := p.UpdateHotIn(base.Add(-time.Hour), base.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	push(1)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return stored
}

// TestSharedDocsSurviveReboot reads a closed durable platform's two logs
// directly, without the process's shared table: every row of the visits log
// is a keyed shared-document row, and the (POI id, hash) it names is in the
// documents log and decodes to the document its visit was pushed with. A
// reboot then reads every visit back with that document.
func TestSharedDocsSurviveReboot(t *testing.T) {
	dir := t.TempDir()
	stored := pushSharedDocVisits(t, dir)

	docs := map[string]model.POI{}
	err := kvstore.ReplayWAL(filepath.Join(dir, "visits.wal.docs"), func(c kvstore.Cell) error {
		v, err := model.DecodeVisitBinary(c.Value)
		if err != nil || v.POI.ID == 0 {
			return fmt.Errorf("document %q: %v (%+v)", c.Row, err, v)
		}
		docs[c.Row] = v.POI
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	err = kvstore.ReplayWAL(filepath.Join(dir, "visits.wal"), func(c kvstore.Cell) error {
		rows++
		tm, id, hash, err := keyedRowRef(c)
		if err != nil {
			return fmt.Errorf("row %q: %v", c.Row, err)
		}
		key := strconv.FormatInt(id, 10) + "|" + strconv.FormatUint(hash, 16)
		doc, ok := docs[key]
		if !ok {
			return fmt.Errorf("row %q names document %s, which the documents log does not hold", c.Row, key)
		}
		if want := stored[tm]; !reflect.DeepEqual(doc, want) {
			return fmt.Errorf("row %q: the documents log holds\n%+v\nthe visit was pushed with\n%+v", c.Row, doc, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != len(stored) {
		t.Fatalf("the visits log holds %d rows, %d were pushed", rows, len(stored))
	}
	if len(docs) != 10 {
		t.Errorf("the documents log holds %d documents, want 10: two versions of each of 5 POIs", len(docs))
	}

	cfg := testConfig()
	cfg.WALDir = dir
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := 0
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		n++
		if want := stored[v.Time]; !reflect.DeepEqual(v.POI, want) {
			t.Errorf("visit at %d rebooted with\n%+v\nwant\n%+v", v.Time, v.POI, want)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(stored) {
		t.Errorf("rebooted with %d visits, want %d", n, len(stored))
	}
}

// TestBootFailsOnUncoveredSharedRow drops one document from a closed
// platform's documents log: booting must fail, naming a visit row that names
// the lost document, although this process's shared table still holds it.
// It does so over the keyed rows the platform writes and over the same rows
// rewritten in the 0x03 layout older logs hold.
func TestBootFailsOnUncoveredSharedRow(t *testing.T) {
	for _, layout := range []string{"keyed", "shared"} {
		t.Run(layout, func(t *testing.T) {
			dir := t.TempDir()
			pushSharedDocVisits(t, dir)
			if layout == "shared" {
				rewriteAsShared(t, dir, func(int) bool { return true })
			}
			path := filepath.Join(dir, "visits.wal.docs")
			var kept []kvstore.Cell
			var dropped string
			if err := kvstore.ReplayWAL(path, func(c kvstore.Cell) error {
				if dropped == "" {
					dropped = c.Row
				} else {
					kept = append(kept, c)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := writeLog(path, kept); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.WALDir = dir
			p, err := New(cfg)
			if err == nil {
				p.Close()
				t.Fatalf("booted with document %s missing from the documents log", dropped)
			}
			id, _, _ := strings.Cut(dropped, "|")
			if !strings.Contains(err.Error(), `visit row "u`) || !strings.Contains(err.Error(), "POI "+id+" ") {
				t.Errorf("boot error %q does not name a visit row of POI %s", err, id)
			}
		})
	}
}

// TestMixedTagLogReboot reboots over a visits log whose rows alternate
// between the 0x03 layout and the keyed one, as a log written across an
// upgrade does: ScanAll returns every pushed visit, user and time included,
// and searches with and without predicates over both layouts equal a
// brute-force answer over the pushed visits.
func TestMixedTagLogReboot(t *testing.T) {
	dir := t.TempDir()
	stored := pushSharedDocVisits(t, dir)
	rewriteAsShared(t, dir, func(i int) bool { return i%2 == 0 })
	tags := map[byte]int{}
	if err := kvstore.ReplayWAL(filepath.Join(dir, "visits.wal"), func(c kvstore.Cell) error {
		tags[c.Value[0]]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tags[model.VisitBinaryTagShared] == 0 || tags[model.VisitBinaryTagKeyed] == 0 || len(tags) != 2 {
		t.Fatalf("the rewritten log holds rows by tag %v, want 0x03 and 0x04 rows", tags)
	}

	cfg := testConfig()
	cfg.WALDir = dir
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	acct, token, err := p.Users.SignIn("facebook", "facebook:3")
	if err != nil {
		t.Fatal(err)
	}
	uid := acct.UserID
	var times []int64
	for tm := range stored {
		times = append(times, tm)
	}
	slices.Sort(times)
	var want, got []model.Visit
	for _, tm := range times {
		want = append(want, model.Visit{UserID: uid, Time: tm, Grade: 4, Network: "facebook", POI: stored[tm]})
	}
	if err := p.Visits.ScanAll(func(v model.Visit) bool { got = append(got, v); return true }); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(got, func(a, b model.Visit) int { return cmp.Compare(a.Time, b.Time) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanAll after the reboot:\ngot  %+v\nwant %+v", got, want)
	}

	catalog := p.Catalog()
	box := geo.RectAround(catalog[2].Point(), 1)
	for _, c := range []struct {
		name    string
		bbox    *geo.Rect
		keyword string
	}{{"none", nil, ""}, {"bbox", &box, ""}, {"keyword", nil, catalog[1].Keywords[0]}} {
		from, to := time.UnixMilli(times[0]), time.UnixMilli(times[len(times)-1])
		res, err := p.Search(context.Background(), SearchRequest{Token: token, Friends: []int64{uid}, BBox: c.bbox, Keyword: c.keyword, From: from, To: to})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: a POI's answer carries the document of its first
		// visit in key order, which is time order for one user.
		type agg struct {
			doc    model.POI
			units  int64
			visits int
		}
		byPOI := map[int64]*agg{}
		for _, v := range want {
			if (c.bbox != nil && !c.bbox.Contains(v.POI.Point())) || (c.keyword != "" && !slices.Contains(v.POI.Keywords, c.keyword)) {
				continue
			}
			a := byPOI[v.POI.ID]
			if a == nil {
				a = &agg{doc: v.POI}
				byPOI[v.POI.ID] = a
			}
			a.units += model.GradeUnits(v.Grade)
			a.visits++
		}
		if len(res.POIs) != len(byPOI) || len(byPOI) == 0 {
			t.Fatalf("%s: %d POIs, brute force %d", c.name, len(res.POIs), len(byPOI))
		}
		for _, r := range res.POIs {
			a := byPOI[r.POI.ID]
			if a == nil || r.Visits != a.visits || r.Score != model.MeanGrade(a.units, a.visits) || !reflect.DeepEqual(r.POI, a.doc) {
				t.Errorf("%s: answer %+v, brute force %+v", c.name, r, a)
			}
		}
	}
}

// rewriteAsShared rewrites the i-th row of the visits log in dir, for every
// i that shared selects, from the keyed layout to the 0x03 layout, encoded
// here: the normalized layout plus the document hash, with the user and time
// the row key holds.
func rewriteAsShared(t *testing.T, dir string, shared func(i int) bool) {
	t.Helper()
	path := filepath.Join(dir, "visits.wal")
	var cells []kvstore.Cell
	if err := kvstore.ReplayWAL(path, func(c kvstore.Cell) error {
		if shared(len(cells)) {
			v, err := model.DecodeVisitBinary(c.Value)
			if err != nil || c.Value[0] != model.VisitBinaryTagKeyed {
				return fmt.Errorf("row %q: %v, tag %#x", c.Row, err, c.Value[0])
			}
			if _, err := fmt.Sscanf(c.Row, "u%d|t%d|", &v.UserID, &v.Time); err != nil {
				return fmt.Errorf("row %q: %v", c.Row, err)
			}
			b := model.EncodeVisitBinaryNormalized(&v)
			b[0] = model.VisitBinaryTagShared
			c.Value = append(b, c.Value[2:10]...)
		}
		cells = append(cells, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := writeLog(path, cells); err != nil {
		t.Fatal(err)
	}
}

// writeLog replaces the log at path with one record of cells.
func writeLog(path string, cells []kvstore.Cell) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	w, err := kvstore.OpenGroupCommitWAL(path, kvstore.SyncOS)
	if err != nil {
		return err
	}
	if err := w.AppendBatch(cells); err != nil {
		return err
	}
	return w.Close()
}

// keyedRowRef reads the visit time, POI id and document hash of a keyed
// visit row by its layout alone: the time from the row key, then the
// payload's tag, version, hash, grade, POI id and network.
func keyedRowRef(c kvstore.Cell) (tm, id int64, hash uint64, err error) {
	b := c.Value
	if len(b) < 18 || b[0] != model.VisitBinaryTagKeyed {
		return 0, 0, 0, fmt.Errorf("payload %x is not a keyed visit", b)
	}
	var user int64
	if _, err := fmt.Sscanf(c.Row, "u%d|t%d|", &user, &tm); err != nil {
		return 0, 0, 0, err
	}
	hash = binary.LittleEndian.Uint64(b[2:])
	id, w := binary.Varint(b[18:])
	if w <= 0 {
		return 0, 0, 0, fmt.Errorf("bad POI id")
	}
	b = b[18+w:]
	if n, w := binary.Uvarint(b); w <= 0 || uint64(len(b)-w) != n {
		return 0, 0, 0, fmt.Errorf("bad network")
	}
	return tm, id, hash, nil
}
