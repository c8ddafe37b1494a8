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
	h, err := b.finish(codecNone)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(h.data)
	b.reset()
	c := Cell{Row: "solo", Qualifier: "q", Timestamp: 1, Value: []byte("v")}
	b.add(&c)
	h, err = b.finish(codecNone)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(h.data)
	// Rows that grow and shrink in length: the arena is sized from the
	// first row, so a longer one later regrows it.
	b.reset()
	for i := 0; i < 40; i++ {
		c := Cell{Row: fmt.Sprintf("r%0*d", 1+i%9*3, i), Qualifier: fmt.Sprintf("q%0*d", i%4, i), Timestamp: int64(i), Value: []byte("v")}
		b.add(&c)
	}
	if h, err = b.finish(codecNone); err != nil {
		f.Fatal(err)
	}
	f.Add(h.data)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		cells, err := decodeBlockPayload(data, -1)
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
		again, err := decodeBlockPayload(data, len(cells))
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

// FuzzLZDecompress feeds arbitrary bytes to the LZ decoder with a range of
// declared lengths. It must error on malformed streams, never panic.
func FuzzLZDecompress(f *testing.F) {
	f.Add(lzCompress(bytes.Repeat([]byte("modissense block "), 50)), 850)
	f.Add(lzCompress([]byte("short")), 5)
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 0, 0}, 10)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		if rawLen < 0 || rawLen > 1<<20 {
			return
		}
		out, err := lzDecompress(data, rawLen)
		if err == nil && len(out) != rawLen {
			t.Fatalf("decoder returned %d bytes without error, declared %d", len(out), rawLen)
		}
	})
}

// FuzzLZRoundtrip checks compress→decompress identity on arbitrary input.
func FuzzLZRoundtrip(f *testing.F) {
	f.Add([]byte("abcabcabcabc"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<20 {
			return
		}
		got, err := lzDecompress(lzCompress(raw), len(raw))
		if err != nil {
			t.Fatalf("roundtrip error: %v", err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatal("roundtrip mismatch")
		}
	})
}
