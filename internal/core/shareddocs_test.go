package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

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
		p, err := model.DecodeDocRecord(c.Value)
		if err != nil || p.ID == 0 {
			return fmt.Errorf("document %q: %v (%+v)", c.Row, err, p)
		}
		docs[c.Row] = p
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
func TestBootFailsOnUncoveredSharedRow(t *testing.T) {
	t.Run("keyed", func(t *testing.T) {
		dir := t.TempDir()
		pushSharedDocVisits(t, dir)
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

// TestBootFailsOnDeletedLayout rewrites the first row of a closed platform's
// visits log in a layout no writer emits any more and no reader accepts:
// 0x01 (the document embedded) or 0x03 (the first shared layout, the
// normalized fields plus the document hash). Booting must fail, naming the
// tag and the row.
func TestBootFailsOnDeletedLayout(t *testing.T) {
	for _, c := range []struct {
		tag    string
		encode func(v *model.Visit, keyed []byte) []byte
	}{
		{"0x01", func(v *model.Visit, _ []byte) []byte { return model.EncodeVisitBinary(v) }},
		{"0x03", func(v *model.Visit, keyed []byte) []byte {
			b := model.EncodeVisitBinaryNormalized(v)
			b[0] = 0x03
			return append(b, keyed[2:10]...)
		}},
	} {
		t.Run(c.tag, func(t *testing.T) {
			dir := t.TempDir()
			pushSharedDocVisits(t, dir)
			path := filepath.Join(dir, "visits.wal")
			var cells []kvstore.Cell
			if err := kvstore.ReplayWAL(path, func(cell kvstore.Cell) error {
				if len(cells) == 0 {
					v, err := model.DecodeVisitBinary(cell.Value)
					if err != nil {
						return fmt.Errorf("row %q: %v", cell.Row, err)
					}
					if _, err := fmt.Sscanf(cell.Row, "u%d|t%d|", &v.UserID, &v.Time); err != nil {
						return fmt.Errorf("row %q: %v", cell.Row, err)
					}
					cell.Value = c.encode(&v, cell.Value)
				}
				cells = append(cells, cell)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := writeLog(path, cells); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig()
			cfg.WALDir = dir
			p, err := New(cfg)
			if err == nil {
				p.Close()
				t.Fatalf("booted over a visits log holding a %s row", c.tag)
			}
			if row := strconv.Quote(cells[0].Row); !strings.Contains(err.Error(), c.tag) || !strings.Contains(err.Error(), row) {
				t.Errorf("boot error %q does not name tag %s and row %s", err, c.tag, row)
			}
		})
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
