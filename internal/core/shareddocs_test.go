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
	err := kvstore.RecoverWAL(filepath.Join(dir, "visits.wal.docs"), kvstore.SyncOS, func(c kvstore.Cell) error {
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
	err = kvstore.RecoverWAL(filepath.Join(dir, "visits.wal"), kvstore.SyncOS, func(c kvstore.Cell) error {
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
		if err := kvstore.RecoverWAL(path, kvstore.SyncOS, func(c kvstore.Cell) error {
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
		named := false
		if rerr := kvstore.RecoverWAL(filepath.Join(dir, "visits.wal"), kvstore.SyncOS, func(c kvstore.Cell) error {
			_, poi, _, rerr := keyedRowRef(c)
			named = named || strconv.FormatInt(poi, 10) == id && strings.Contains(err.Error(), "visit row "+strconv.Quote(c.Row))
			return rerr
		}); rerr != nil {
			t.Fatal(rerr)
		}
		if !named || !strings.Contains(err.Error(), "POI "+id+" ") {
			t.Errorf("boot error %q does not name a visit row of POI %s", err, id)
		}
	})
}

// storeOneDurableVisit boots a durable platform over dir, stores one
// facebook visit by user 3 and closes the platform.
func storeOneDurableVisit(t *testing.T, dir string) {
	t.Helper()
	p, err := New(crashConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Visits.Store(model.Visit{UserID: 3, Time: crashBase, Grade: 4, Network: "facebook", POI: p.Catalog()[0]}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBootFailsOnDeletedLayout rewrites the first row of a closed platform's
// visits log in a layout no writer emits any more and no reader accepts:
// 0x01 (the document embedded), 0x03 (the first shared layout, the
// normalized fields plus the document hash) or 0x04 (the varint keyed
// layout: hash, grade, the POI id as a varint, the network length-prefixed)
// payloads, or a decimal row key (u<user>|t<time>|<seq>, zero-padded). Booting must fail, naming the row
// and what of it this build does not read.
func TestBootFailsOnDeletedLayout(t *testing.T) {
	for _, c := range []struct {
		name, want string
		rewrite    func(cell *kvstore.Cell, v *model.Visit, seq uint32)
	}{
		{"0x01", "0x01", func(cell *kvstore.Cell, v *model.Visit, _ uint32) { cell.Value = model.EncodeVisitBinary(v) }},
		{"0x03", "0x03", func(cell *kvstore.Cell, v *model.Visit, _ uint32) {
			b := model.EncodeVisitBinaryNormalized(v)
			b[0] = 0x03
			cell.Value = append(b, cell.Value[2:10]...)
		}},
		{"0x04", "0x04", func(cell *kvstore.Cell, v *model.Visit, _ uint32) {
			b := append([]byte{0x04, 1}, cell.Value[2:18]...)
			b = binary.AppendVarint(b, v.POI.ID)
			b = binary.AppendUvarint(b, uint64(len(v.Network)))
			cell.Value = append(b, v.Network...)
		}},
		// A normalized row carries its user and time, so no scan needs its
		// key: only the boot pass's key parse can refuse it.
		{"decimal-key", "malformed key", func(cell *kvstore.Cell, v *model.Visit, seq uint32) {
			cell.Row = fmt.Sprintf("u%012d|t%013d|%06d", v.UserID, v.Time, seq)
			cell.Value = model.EncodeVisitBinaryNormalized(v)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			storeOneDurableVisit(t, dir)
			path := filepath.Join(dir, "visits.wal")
			var cells []kvstore.Cell
			if err := kvstore.RecoverWAL(path, kvstore.SyncOS, func(cell kvstore.Cell) error {
				if len(cells) == 0 {
					v, err := model.DecodeVisitBinary(cell.Value)
					if err != nil {
						return fmt.Errorf("row %q: %v", cell.Row, err)
					}
					var seq uint32
					if v.UserID, v.Time, seq, err = visitKeyFields(cell.Row); err != nil {
						return err
					}
					c.rewrite(&cell, &v, seq)
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
				t.Fatalf("booted over a visits log holding a %s row", c.name)
			}
			if row := strconv.Quote(cells[0].Row); !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), row) {
				t.Errorf("boot error %q does not name %s and row %s", err, c.want, row)
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
// payload's tag, version, hash and POI id at their fixed offsets. It reads
// facebook visits only, whose payload is the 27 bytes of a network with a
// code, facebook's being 1.
func keyedRowRef(c kvstore.Cell) (tm, id int64, hash uint64, err error) {
	b := c.Value
	if len(b) != 27 || b[0] != model.VisitBinaryTagKeyed || b[1] != 1 || b[26] != 1 {
		return 0, 0, 0, fmt.Errorf("payload %x is not a keyed facebook visit", b)
	}
	if _, tm, _, err = visitKeyFields(c.Row); err != nil {
		return 0, 0, 0, err
	}
	return tm, int64(binary.LittleEndian.Uint64(b[18:])), binary.LittleEndian.Uint64(b[2:]), nil
}

// visitKeyFields reads a visit row key by its layout alone: user, time with
// its sign bit flipped, and sequence number, big-endian.
func visitKeyFields(row string) (user, tm int64, seq uint32, err error) {
	if len(row) != 20 {
		return 0, 0, 0, fmt.Errorf("row %q is not a visit key", row)
	}
	b := []byte(row)
	return int64(binary.BigEndian.Uint64(b)), int64(binary.BigEndian.Uint64(b[8:]) ^ 1<<63), binary.BigEndian.Uint32(b[16:]), nil
}

// TestNetworkCodesCoverConnectors holds the keyed visit layout's network
// code table to the connectors the platform registers: a visit of each
// registered network encodes to the 27 bytes of a network with a code, so
// a connector added without one, whose rows would all take the escape's
// slower parse, fails here. Names without a code — an unregistered one and
// a 200-byte one — and the empty name round-trip all the same.
func TestNetworkCodesCoverConnectors(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	poi := p.Catalog()[0]
	_, hash, err := model.InternPOI(&poi)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range networks {
		if _, err := p.Users.Connector(name); err != nil {
			t.Fatal(err)
		}
		v := model.Visit{Grade: 4, Network: name, POI: poi}
		if b := model.EncodeVisitBinaryKeyed(&v, hash); len(b) != 27 {
			t.Errorf("a %s visit encodes to %d bytes (%x), want 27: the network has no code", name, len(b), b)
		}
	}
	for _, name := range []string{"mastodon", "", strings.Repeat("n", 200)} {
		v := model.Visit{Grade: 4, Network: name, POI: poi}
		b := model.EncodeVisitBinaryKeyed(&v, hash)
		if got, err := model.DecodeVisitBinary(b); err != nil || !reflect.DeepEqual(got, v) {
			t.Errorf("network %q: %x decoded to %+v (%v), want %+v", name, b, got, err, v)
		}
	}
}
