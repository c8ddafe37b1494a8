package kvstore

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzBlockDecode feeds arbitrary bytes to the block-payload decoder. The
// decoder parses length-prefixed entries and a restart trailer from
// untrusted-shaped input; it must reject garbage with an error, never panic
// or over-read.
func FuzzBlockDecode(f *testing.F) {
	// Seed with real encoded blocks so the fuzzer starts from the valid
	// format and mutates inward.
	var b blockBuilder
	for i := 0; i < 30; i++ {
		c := Cell{
			Row:       fmt.Sprintf("row-%05d", i/3),
			Qualifier: fmt.Sprintf("q%d", i%3),
			Timestamp: int64(i),
			Value:     bytes.Repeat([]byte{byte(i)}, i%17),
			Tombstone: i%7 == 0,
		}
		b.add(&c)
	}
	f.Add(b.finish().data)
	b.reset()
	c := Cell{Row: "solo", Qualifier: "q", Timestamp: 1, Value: []byte("v")}
	b.add(&c)
	f.Add(b.finish().data)
	// Rows that grow and shrink in length: the arena is sized from the
	// first row, so a longer one later regrows it.
	b.reset()
	for i := 0; i < 40; i++ {
		c := Cell{Row: fmt.Sprintf("r%0*d", 1+i%9*3, i), Qualifier: fmt.Sprintf("q%0*d", i%4, i), Timestamp: int64(i), Value: []byte("v")}
		b.add(&c)
	}
	f.Add(b.finish().data)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		cells, err := decodeBlockPayload(nil, data, -1)
		if err != nil {
			return
		}
		// Whatever decoded must be internally consistent: values sliced from
		// the payload, never out of bounds (the decoder would have panicked
		// otherwise), and re-encodable.
		var rb blockBuilder
		for i := range cells {
			rb.add(&cells[i])
		}
		if rb.count != len(cells) {
			t.Fatalf("re-encode count %d, want %d", rb.count, len(cells))
		}
		// Told its cell count, as reads are, the decoder sizes its arena
		// for every cell up front and must decode the same cells.
		again, err := decodeBlockPayload(nil, data, len(cells))
		if err != nil {
			t.Fatalf("decode with the count %d failed: %v", len(cells), err)
		}
		for i := range cells {
			if again[i].Row != cells[i].Row || again[i].Qualifier != cells[i].Qualifier || !bytes.Equal(again[i].Value, cells[i].Value) {
				t.Fatalf("cell %d decodes as %v with the count, %v without", i, again[i], cells[i])
			}
		}
	})
}
