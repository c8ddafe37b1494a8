package kvstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzWALCells derives a deterministic multi-record cell sequence from fuzz
// bytes: at least two cells, with rows/qualifiers/values sliced out of raw
// so the fuzzer can explore interesting body shapes (empty values,
// tombstones, long rows).
func fuzzWALCells(raw []byte) []Cell {
	n := 2 + len(raw)/16
	if n > 8 {
		n = 8
	}
	cells := make([]Cell, n)
	for i := range cells {
		lo := 0
		if len(raw) > 0 {
			lo = (i * len(raw)) / n
		}
		hi := len(raw)
		if i < n-1 {
			hi = ((i + 1) * len(raw)) / n
		}
		chunk := raw[lo:hi]
		c := Cell{
			Row:       "row-" + strconv.Itoa(i),
			Qualifier: "q" + strconv.Itoa(i%3),
			Timestamp: int64(i * 1000),
			Tombstone: i%3 == 2,
		}
		if len(chunk) > 0 {
			c.Row += string(chunk[:min(len(chunk), 64)])
			c.Value = append([]byte(nil), chunk...)
		}
		cells[i] = c
	}
	return cells
}

// encodeWALFile renders the cells as a well-formed per-put WAL byte stream
// and the cumulative end offset of each record.
func encodeWALFile(cells []Cell) ([]byte, []int) {
	var data []byte
	ends := make([]int, len(cells))
	for i := range cells {
		data = appendWALRecord(data, cells[i:i+1])
		ends[i] = len(data)
	}
	return data, ends
}

// encodeWALFileBatched renders the cells as a WAL mixing per-put and batched
// group-commit records: record k carries 1 + (pattern+k)%3 cells (single-cell
// records use the per-put framing, exactly as the group-commit writer does).
// It returns the stream, each record's cumulative end offset, and each
// record's cell count.
func encodeWALFileBatched(cells []Cell, pattern byte) ([]byte, []int, []int) {
	var data []byte
	var ends, counts []int
	for k := 0; len(cells) > 0; k++ {
		n := min(1+(int(pattern)+k)%3, len(cells))
		data = appendWALRecord(data, cells[:n])
		cells = cells[n:]
		ends = append(ends, len(data))
		counts = append(counts, n)
	}
	return data, ends, counts
}

func replayFile(t *testing.T, data []byte) ([]Cell, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Cell
	err := ReplayWAL(path, func(c Cell) error { got = append(got, c); return nil })
	return got, err
}

// FuzzReplayWAL drives ReplayWAL through the crash-recovery contract:
//
//   - mode 0: the raw fuzz bytes ARE the log file — replay may fail but must
//     never panic and never hand a cell past an error.
//   - mode 1: a valid log truncated at an arbitrary byte (torn tail) must
//     replay cleanly (nil error) and yield exactly the complete-record
//     prefix.
//   - mode 2: a single byte flipped inside a non-final record's body is
//     mid-log corruption: replay must fail with the distinct mid-log error,
//     never silently drop or misread the record.
//   - mode 3: a log mixing per-put and batched group-commit records,
//     truncated at an arbitrary byte: a torn batch tail must apply NONE of
//     the torn batch's cells (a batch is one crash-atomic unit) and every
//     complete record before it must replay in full.
//   - mode 4: a byte flipped inside a non-final batched record must be
//     classed as mid-log corruption, and no cell from the corrupt batch (or
//     anything after it) may be handed to the apply callback.
func FuzzReplayWAL(f *testing.F) {
	f.Add([]byte("hello world, this is wal fuzz seed data"), uint16(10), uint8(0))
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), uint16(33), uint8(1))
	f.Add([]byte("tombstones and empty values exercise the flag byte"), uint16(5), uint8(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00}, uint16(3), uint8(0))
	f.Add([]byte("batched records share one crc so a torn batch drops whole"), uint16(41), uint8(3))
	f.Add([]byte("corrupting one cell inside a batch poisons the whole batch"), uint16(27), uint8(4))

	f.Fuzz(func(t *testing.T, raw []byte, pos uint16, mode uint8) {
		switch mode % 5 {
		case 0:
			// Arbitrary bytes: any error is acceptable, panics are not.
			_, _ = replayFile(t, raw)

		case 1:
			cells := fuzzWALCells(raw)
			data, ends := encodeWALFile(cells)
			cut := int(pos) % (len(data) + 1)
			want := 0
			for _, end := range ends {
				if end <= cut {
					want++
				}
			}
			got, err := replayFile(t, data[:cut])
			if err != nil {
				t.Fatalf("torn tail at %d/%d must replay cleanly, got %v", cut, len(data), err)
			}
			if len(got) != want {
				t.Fatalf("replayed %d records, want the %d complete ones before cut %d", len(got), want, cut)
			}
			for i := range got {
				if got[i].Row != cells[i].Row || got[i].Qualifier != cells[i].Qualifier ||
					got[i].Timestamp != cells[i].Timestamp || got[i].Tombstone != cells[i].Tombstone ||
					!bytes.Equal(got[i].Value, cells[i].Value) {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], cells[i])
				}
			}

		case 2:
			cells := fuzzWALCells(raw)
			data, ends := encodeWALFile(cells)
			// Flip one byte inside the body of any record but the last: CRC32
			// catches every single-byte change, and with records following it
			// must be classed as mid-log corruption, not a torn tail.
			last := len(ends) - 1
			rec := int(pos) % last
			start := 8 // skip the record header
			if rec > 0 {
				start = ends[rec-1] + 8
			}
			if start >= ends[rec] {
				t.Skip("record has an empty body")
			}
			flip := start + int(pos)%(ends[rec]-start)
			mutated := append([]byte(nil), data...)
			mutated[flip] ^= 0x01
			got, err := replayFile(t, mutated)
			if err == nil {
				t.Fatalf("mid-log corruption at byte %d (record %d) replayed cleanly with %d records", flip, rec, len(got))
			}
			if !strings.Contains(err.Error(), "mid-log") {
				t.Fatalf("mid-log corruption error = %v, want the distinct mid-log contract", err)
			}
			if len(got) > rec {
				t.Fatalf("replay handed %d records past corruption in record %d", len(got), rec)
			}

		case 3:
			cells := fuzzWALCells(raw)
			data, ends, counts := encodeWALFileBatched(cells, uint8(pos))
			cut := int(pos) % (len(data) + 1)
			want := 0
			for i, end := range ends {
				if end <= cut {
					want += counts[i]
				}
			}
			got, err := replayFile(t, data[:cut])
			if err != nil {
				t.Fatalf("torn batched tail at %d/%d must replay cleanly, got %v", cut, len(data), err)
			}
			if len(got) != want {
				t.Fatalf("replayed %d cells, want the %d from complete records before cut %d (torn batches apply nothing)", len(got), want, cut)
			}
			for i := range got {
				if got[i].Row != cells[i].Row || got[i].Qualifier != cells[i].Qualifier ||
					got[i].Timestamp != cells[i].Timestamp || got[i].Tombstone != cells[i].Tombstone ||
					!bytes.Equal(got[i].Value, cells[i].Value) {
					t.Fatalf("cell %d = %+v, want %+v", i, got[i], cells[i])
				}
			}

		case 4:
			cells := fuzzWALCells(raw)
			data, ends, counts := encodeWALFileBatched(cells, uint8(pos))
			if len(ends) < 2 {
				t.Skip("need a non-final record to corrupt")
			}
			last := len(ends) - 1
			rec := int(pos) % last
			start := 8
			if rec > 0 {
				start = ends[rec-1] + 8
			}
			if start >= ends[rec] {
				t.Skip("record has an empty body")
			}
			flip := start + int(pos)%(ends[rec]-start)
			mutated := append([]byte(nil), data...)
			mutated[flip] ^= 0x01
			got, err := replayFile(t, mutated)
			if err == nil {
				t.Fatalf("mid-log corruption at byte %d (record %d) replayed cleanly with %d cells", flip, rec, len(got))
			}
			if !strings.Contains(err.Error(), "mid-log") {
				t.Fatalf("mid-log corruption error = %v, want the distinct mid-log contract", err)
			}
			intact := 0
			for i := 0; i < rec; i++ {
				intact += counts[i]
			}
			if len(got) > intact {
				t.Fatalf("replay handed %d cells but only %d precede the corrupt record %d", len(got), intact, rec)
			}
		}
	})
}
