package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// The write-ahead log format. A durable table appends every write to one
// log before applying it (see GroupCommitWAL, the one writer, and
// OpenDurableTable); ReplayWAL reads the log back after a crash. Records are
// CRC-protected and length-prefixed:
//
//	record: crc32(body) uint32 | bodyLen uint32 | body
//	body:   rowLen u16 | row | qualLen u16 | qual | ts i64 | flags u8 | valLen u32 | val
//
// Batched records (commit groups of more than one cell) set walBatchFlag —
// the top bit of the bodyLen word, which plain records can never carry
// because body lengths are capped at maxWALBody. A batch body is:
//
//	count u32 | count × (cellLen u32 | cell body)
//
// where each cell body uses the per-put layout above. Replaying a batch
// record applies exactly the cells a per-put log of the same writes would —
// the two encodings are replay-equivalent — and a torn batch at the log tail
// applies none of its cells (the whole record is one CRC unit).

// walBatchFlag marks a record's bodyLen word as a batched record.
const walBatchFlag = uint32(1) << 31

// maxWALBody caps a single record body; replay reads a larger length as a
// corrupt log, so checkWALBatch refuses a write that would need one.
const maxWALBody = 1 << 28

// maxWALBatchCells caps the declared cell count of a batch record so a
// corrupt count cannot drive a huge allocation during replay; checkWALBatch
// refuses a larger write.
const maxWALBatchCells = 1 << 20

// walBodyLen is the length of c's per-put body.
func walBodyLen(c *Cell) int {
	return 2 + len(c.Row) + 2 + len(c.Qualifier) + 8 + 1 + 4 + len(c.Value)
}

// appendWALBody appends c's per-put body to dst.
func appendWALBody(dst []byte, c *Cell) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Row)))
	dst = append(dst, c.Row...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(c.Qualifier)))
	dst = append(dst, c.Qualifier...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(c.Timestamp))
	var flags byte
	if c.Tombstone {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Value)))
	return append(dst, c.Value...)
}

// appendWALRecord appends one framed record of the cells to dst: a per-put
// record for one cell, a batched record otherwise. The batch body is
// written in one pass, since each cell's length is known before its bytes
// are written; the header is filled in once the body is.
func appendWALRecord(dst []byte, cells []Cell) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	flag := uint32(0)
	if len(cells) == 1 {
		dst = appendWALBody(dst, &cells[0])
	} else {
		flag = walBatchFlag
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cells)))
		for i := range cells {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(walBodyLen(&cells[i])))
			dst = appendWALBody(dst, &cells[i])
		}
	}
	body := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], crc32.ChecksumIEEE(body))
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(body))|flag)
	return dst
}

// checkWALBatch refuses cells the log could not replay: a row or qualifier
// longer than its u16 length field, more cells than a batch record may
// declare, or a batch body over maxWALBody. The batch body bounds every
// record a commit group of these cells alone writes, each cell's per-put
// body included.
func checkWALBatch(cells []Cell) error {
	if len(cells) > maxWALBatchCells {
		return fmt.Errorf("kvstore: wal batch of %d cells over the %d-cell limit", len(cells), maxWALBatchCells)
	}
	n := 4
	for i := range cells {
		c := &cells[i]
		if len(c.Row) > math.MaxUint16 || len(c.Qualifier) > math.MaxUint16 {
			return fmt.Errorf("kvstore: cell %d: row key of %d bytes or qualifier of %d bytes over the wal's %d-byte limit",
				i, len(c.Row), len(c.Qualifier), math.MaxUint16)
		}
		n += 4 + walBodyLen(c)
	}
	if n > maxWALBody {
		return fmt.Errorf("kvstore: wal batch body of %d bytes over the %d-byte record limit", n, maxWALBody)
	}
	return nil
}

func decodeWALBody(b []byte) (Cell, error) {
	var c Cell
	read := func(n int) ([]byte, error) {
		if len(b) < n {
			return nil, errors.New("kvstore: truncated wal body")
		}
		out := b[:n]
		b = b[n:]
		return out, nil
	}
	p, err := read(2)
	if err != nil {
		return c, err
	}
	rl := int(binary.LittleEndian.Uint16(p))
	if p, err = read(rl); err != nil {
		return c, err
	}
	c.Row = string(p)
	if p, err = read(2); err != nil {
		return c, err
	}
	ql := int(binary.LittleEndian.Uint16(p))
	if p, err = read(ql); err != nil {
		return c, err
	}
	c.Qualifier = string(p)
	if p, err = read(8); err != nil {
		return c, err
	}
	c.Timestamp = int64(binary.LittleEndian.Uint64(p))
	if p, err = read(1); err != nil {
		return c, err
	}
	c.Tombstone = p[0]&1 != 0
	if p, err = read(4); err != nil {
		return c, err
	}
	vl := int(binary.LittleEndian.Uint32(p))
	if p, err = read(vl); err != nil {
		return c, err
	}
	if vl > 0 {
		c.Value = append([]byte(nil), p...)
	}
	if len(b) != 0 {
		return c, errors.New("kvstore: trailing bytes in wal body")
	}
	return c, nil
}

// decodeWALBatchBody parses a batch record body into its cells.
func decodeWALBatchBody(b []byte) ([]Cell, error) {
	if len(b) < 4 {
		return nil, errors.New("kvstore: truncated wal batch header")
	}
	count := binary.LittleEndian.Uint32(b[:4])
	b = b[4:]
	if count > maxWALBatchCells {
		return nil, fmt.Errorf("kvstore: wal batch of %d cells is implausible; log corrupt", count)
	}
	cells := make([]Cell, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(b) < 4 {
			return nil, errors.New("kvstore: truncated wal batch cell length")
		}
		n := int(binary.LittleEndian.Uint32(b[:4]))
		b = b[4:]
		if n > len(b) {
			return nil, errors.New("kvstore: truncated wal batch cell body")
		}
		c, err := decodeWALBody(b[:n])
		if err != nil {
			return nil, err
		}
		b = b[n:]
		cells = append(cells, c)
	}
	if len(b) != 0 {
		return nil, errors.New("kvstore: trailing bytes in wal batch body")
	}
	return cells, nil
}

// ReplayWAL reads every valid record from the WAL file at path and passes it
// to apply — batched records are unpacked and applied cell by cell, in the
// order they were written, so the per-put and batched encodings replay to
// identical stores. A torn tail (truncated or corrupt final record)
// terminates the replay cleanly, matching the usual crash-recovery contract
// — a torn batch applies none of its cells; corruption in the middle of the
// log is reported as an error.
func ReplayWAL(path string, apply func(Cell) error) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // no log yet — empty store
		}
		return fmt.Errorf("kvstore: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			if err == io.ErrUnexpectedEOF {
				return nil // torn header at tail
			}
			return err
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		lenWord := binary.LittleEndian.Uint32(hdr[4:8])
		isBatch := lenWord&walBatchFlag != 0
		bodyLen := lenWord &^ walBatchFlag
		if bodyLen > maxWALBody {
			return fmt.Errorf("kvstore: wal record of %d bytes is implausible; log corrupt", bodyLen)
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil // torn body at tail
			}
			return err
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			// A checksum mismatch on the very last record is a torn write;
			// distinguishing that from mid-log corruption requires looking
			// ahead. Peek: if nothing follows, treat as torn tail.
			if _, err := r.Peek(1); err == io.EOF {
				return nil
			}
			return errors.New("kvstore: wal checksum mismatch mid-log")
		}
		cells := make([]Cell, 1)
		if isBatch {
			cells, err = decodeWALBatchBody(body)
		} else {
			cells[0], err = decodeWALBody(body)
		}
		if err != nil {
			return err
		}
		for _, c := range cells {
			if err := apply(c); err != nil {
				return err
			}
		}
	}
}
