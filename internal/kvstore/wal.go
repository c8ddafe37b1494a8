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
// OpenDurableTable); RecoverWAL reads the log back after a crash. Records are
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

// The record caps. They are variables only so that tests can lower them.
var (
	// maxWALBody caps a single record body; replay reads a larger length as
	// a corrupt log, so checkWALBatch refuses a write that would need one
	// and a commit group is sealed before it would need one.
	maxWALBody = 1 << 28
	// maxWALBatchCells caps the declared cell count of a batch record so a
	// corrupt count cannot drive a huge allocation during replay;
	// checkWALBatch refuses a larger write and a commit group is sealed
	// before it would write one.
	maxWALBatchCells = 1 << 20
)

// walBatchCountLen is the length of a batch body's count word.
const walBatchCountLen = 4

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
// declare, or a batch body over maxWALBody. It returns the length of that
// batch body, which bounds every record a commit group of these cells alone
// writes, each cell's per-put body included.
func checkWALBatch(cells []Cell) (int, error) {
	if len(cells) > maxWALBatchCells {
		return 0, fmt.Errorf("kvstore: wal batch of %d cells over the %d-cell limit", len(cells), maxWALBatchCells)
	}
	n := walBatchCountLen
	for i := range cells {
		c := &cells[i]
		if len(c.Row) > math.MaxUint16 || len(c.Qualifier) > math.MaxUint16 {
			return 0, fmt.Errorf("kvstore: cell %d: row key of %d bytes or qualifier of %d bytes over the wal's %d-byte limit",
				i, len(c.Row), len(c.Qualifier), math.MaxUint16)
		}
		n += 4 + walBodyLen(c)
	}
	if n > maxWALBody {
		return 0, fmt.Errorf("kvstore: wal batch body of %d bytes over the %d-byte record limit", n, maxWALBody)
	}
	return n, nil
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
	if count > uint32(maxWALBatchCells) {
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

// RecoverWAL replays the log at path and cuts a torn tail off it: every
// whole record is passed to apply — batched records unpacked and applied
// cell by cell, in the order they were written, so the per-put and batched
// encodings replay to identical stores — and a torn tail (a final record
// cut short or failing its checksum, what a crash mid-append leaves)
// applies none of its cells and is truncated away, so the next append
// follows the last whole record instead of bytes no replay reads past.
// Under SyncGroup the cut is synced before RecoverWAL returns. A log with no
// torn tail is not written; a missing log replays as empty; corruption in
// the middle of the log is an error.
func RecoverWAL(path string, policy SyncPolicy, apply func(Cell) error) error {
	end, torn, err := replayWAL(path, apply)
	if err != nil || !torn {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err == nil {
		err = f.Truncate(end)
		if err == nil && policy == SyncGroup {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("kvstore: cut torn wal tail: %w", err)
	}
	return nil
}

// replayWAL passes every whole record of the log at path to apply, and
// returns the offset its last whole record ends at and whether bytes of a
// torn record follow it.
func replayWAL(path string, apply func(Cell) error) (end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil // no log yet — empty store
		}
		return 0, false, fmt.Errorf("kvstore: open wal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [8]byte
		if n, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return end, n > 0, nil // clean end, or a torn header at the tail
			}
			return end, false, err
		}
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		lenWord := binary.LittleEndian.Uint32(hdr[4:8])
		isBatch := lenWord&walBatchFlag != 0
		bodyLen := lenWord &^ walBatchFlag
		if bodyLen > uint32(maxWALBody) {
			return end, false, fmt.Errorf("kvstore: wal record of %d bytes is implausible; log corrupt", bodyLen)
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return end, true, nil // torn body at tail
			}
			return end, false, err
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			// A checksum mismatch on the very last record is a torn write;
			// distinguishing that from mid-log corruption requires looking
			// ahead. Peek: if nothing follows, treat as torn tail.
			if _, err := r.Peek(1); err == io.EOF {
				return end, true, nil
			}
			return end, false, errors.New("kvstore: wal checksum mismatch mid-log")
		}
		cells := make([]Cell, 1)
		if isBatch {
			cells, err = decodeWALBatchBody(body)
		} else {
			cells[0], err = decodeWALBody(body)
		}
		if err != nil {
			return end, false, err
		}
		for _, c := range cells {
			if err := apply(c); err != nil {
				return end, false, err
			}
		}
		end += int64(len(hdr)) + int64(bodyLen)
	}
}
