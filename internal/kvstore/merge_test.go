package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// linearMergeIterator is the pre-loser-tree reference: scan every source
// for the smallest head on each access. Kept in tests as the oracle the
// tournament tree must match and as the benchmark baseline.
type linearMergeIterator struct {
	sources []cellIterator
}

func (m *linearMergeIterator) smallest() int {
	best := -1
	for i, src := range m.sources {
		if !src.valid() {
			continue
		}
		if best == -1 || compareCells(src.cell(), m.sources[best].cell()) < 0 {
			best = i
		}
	}
	return best
}

func (m *linearMergeIterator) valid() bool { return m.smallest() >= 0 }
func (m *linearMergeIterator) cell() *Cell { return m.sources[m.smallest()].cell() }
func (m *linearMergeIterator) next() {
	w := m.smallest()
	cur := *m.sources[w].cell()
	for {
		w = m.smallest()
		if w < 0 || compareCells(m.sources[w].cell(), &cur) != 0 {
			return
		}
		m.sources[w].next()
	}
}

func genMergeSources(rng *rand.Rand, n, cellsPer int, dupRate float64) [][]Cell {
	out := make([][]Cell, n)
	for i := range out {
		for j := 0; j < cellsPer; j++ {
			c := Cell{
				Row:       fmt.Sprintf("r%05d", rng.Intn(cellsPer*2)),
				Qualifier: fmt.Sprintf("q%d", rng.Intn(3)),
				Timestamp: int64(rng.Intn(50)),
				Value:     []byte(fmt.Sprintf("s%d-%d", i, j)),
			}
			out[i] = append(out[i], c)
			// Plant the same key in another source so newest-source-wins tie
			// breaking is exercised.
			if rng.Float64() < dupRate && n > 1 {
				other := rng.Intn(n)
				dup := c
				dup.Value = []byte(fmt.Sprintf("s%d-dup", other))
				out[other] = append(out[other], dup)
			}
		}
	}
	for i := range out {
		s := out[i]
		sort.Slice(s, func(a, b int) bool { return compareCells(&s[a], &s[b]) < 0 })
	}
	return out
}

func flatIterators(sources [][]Cell) []cellIterator {
	its := make([]cellIterator, len(sources))
	for i := range sources {
		its[i] = &flatIterator{cells: sources[i]}
	}
	return its
}

// TestMergeIteratorMatchesLinearReference drives the loser tree and the
// linear reference over identical random inputs — including duplicate keys
// across sources — and requires the exact same cell sequence, which pins
// the newest-source-wins tie break.
func TestMergeIteratorMatchesLinearReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
		rng := rand.New(rand.NewSource(int64(n)))
		sources := genMergeSources(rng, n, 60, 0.2)
		tree := newMergeIterator(flatIterators(sources))
		linear := &linearMergeIterator{sources: flatIterators(sources)}
		step := 0
		for tree.valid() || linear.valid() {
			if tree.valid() != linear.valid() {
				t.Fatalf("n=%d step=%d: validity diverged (tree=%v linear=%v)", n, step, tree.valid(), linear.valid())
			}
			tc, lc := tree.cell(), linear.cell()
			if compareCells(tc, lc) != 0 || string(tc.Value) != string(lc.Value) {
				t.Fatalf("n=%d step=%d: tree %v vs linear %v", n, step, tc, lc)
			}
			tree.next()
			linear.next()
			step++
		}
	}
}

// TestMergeIteratorSeek checks seek against the linear reference at random
// probe points.
func TestMergeIteratorSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sources := genMergeSources(rng, 8, 80, 0.1)
	for trial := 0; trial < 50; trial++ {
		probe := Cell{Row: fmt.Sprintf("r%05d", rng.Intn(200)), Timestamp: int64(1) << 62, Tombstone: true}
		tree := newMergeIterator(flatIterators(sources))
		linear := &linearMergeIterator{sources: flatIterators(sources)}
		tree.seek(&probe)
		for linear.valid() && compareCells(linear.cell(), &probe) < 0 {
			w := linear.smallest()
			linear.sources[w].next()
		}
		if tree.valid() != linear.valid() {
			t.Fatalf("probe %q: validity diverged", probe.Row)
		}
		if tree.valid() && compareCells(tree.cell(), linear.cell()) != 0 {
			t.Fatalf("probe %q: tree at %v, linear at %v", probe.Row, tree.cell(), linear.cell())
		}
	}
}

// TestMergeIteratorDuplicateSkip plants one key in every source and checks
// a single advance consumes all copies, surfacing only the newest source's.
func TestMergeIteratorDuplicateSkip(t *testing.T) {
	var sources [][]Cell
	for i := 0; i < 5; i++ {
		sources = append(sources, []Cell{
			{Row: "dup", Qualifier: "q", Timestamp: 9, Value: []byte(fmt.Sprintf("from-%d", i))},
			{Row: "z", Qualifier: "q", Timestamp: 1, Value: []byte("tail")},
		})
	}
	m := newMergeIterator(flatIterators(sources))
	if !m.valid() || string(m.cell().Value) != "from-0" {
		t.Fatalf("winner is %v, want source 0 (newest)", m.cell())
	}
	m.next()
	if !m.valid() || m.cell().Row != "z" {
		t.Fatalf("after skip, at %v, want row z", m.cell())
	}
	// The five identical tail cells are one logical key; a single advance
	// must consume every copy.
	m.next()
	if m.valid() {
		t.Fatalf("iterator should be exhausted, at %v", m.cell())
	}
}

// TestMergeIteratorRunsAndInterleaving drives the run fast path through
// the shapes that switch it on and off: long single-source runs (the
// runner-up is cached and has to take over at the right cell), strictly
// alternating single-cell runs (it must never be trusted stale), and both
// with keys duplicated across sources at run boundaries and inside runs —
// against the linear reference, values included, so a duplicate surfaced
// from the wrong source fails.
func TestMergeIteratorRunsAndInterleaving(t *testing.T) {
	key := func(i int) Cell {
		return Cell{Row: fmt.Sprintf("r%06d", i), Qualifier: "q", Timestamp: 7}
	}
	for _, n := range []int{2, 3, 5, 8} {
		for _, runLen := range []int{1, 2, 3, 17} {
			rng := rand.New(rand.NewSource(int64(n*100 + runLen)))
			sources := make([][]Cell, n)
			next := 0
			for run := 0; run < 40; run++ {
				// Runs rotate through the sources, so with runLen 1 every
				// cell comes from another source than the one before it.
				src := run % n
				for j := 0; j < runLen; j++ {
					c := key(next)
					next++
					c.Value = []byte(fmt.Sprintf("s%d", src))
					sources[src] = append(sources[src], c)
					// Shadow some keys in other sources: the first and last
					// cell of a run and a random one in between.
					if j == 0 || j == runLen-1 || rng.Intn(4) == 0 {
						for other := 0; other < n; other++ {
							if other != src && rng.Intn(3) == 0 {
								dup := c
								dup.Value = []byte(fmt.Sprintf("s%d-dup", other))
								sources[other] = append(sources[other], dup)
							}
						}
					}
				}
			}
			tree := newMergeIterator(flatIterators(sources))
			linear := &linearMergeIterator{sources: flatIterators(sources)}
			for step := 0; tree.valid() || linear.valid(); step++ {
				if tree.valid() != linear.valid() {
					t.Fatalf("n=%d run=%d step=%d: validity diverged (tree=%v linear=%v)", n, runLen, step, tree.valid(), linear.valid())
				}
				tc, lc := tree.cell(), linear.cell()
				if compareCells(tc, lc) != 0 || string(tc.Value) != string(lc.Value) {
					t.Fatalf("n=%d run=%d step=%d: tree %v vs linear %v", n, runLen, step, tc, lc)
				}
				// A seek in the middle of a run must drop the cached
				// runner-up with the rest of the tournament.
				if step%23 == 11 {
					probe := key(rng.Intn(next))
					probe.Timestamp, probe.Tombstone = int64(1)<<62, true
					if compareCells(&probe, tc) > 0 {
						tree.seek(&probe)
						for linear.valid() && compareCells(linear.cell(), &probe) < 0 {
							linear.sources[linear.smallest()].next()
						}
						continue
					}
				}
				tree.next()
				linear.next()
			}
		}
	}
}

func benchMergeSources(n int) [][]Cell {
	rng := rand.New(rand.NewSource(1))
	return genMergeSources(rng, n, 400, 0)
}

// BenchmarkMergeIterator compares the loser tree against the linear
// smallest-head scan at increasing fan-in. The tree is O(log k) per step
// where the linear scan is O(k); at 16+ sources the gap is the point of
// the change.
func BenchmarkMergeIterator(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		sources := benchMergeSources(n)
		b.Run(fmt.Sprintf("loser-tree/sources=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := newMergeIterator(flatIterators(sources))
				for m.valid() {
					m.next()
				}
			}
		})
		b.Run(fmt.Sprintf("linear-scan/sources=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := &linearMergeIterator{sources: flatIterators(sources)}
				for m.valid() {
					m.next()
				}
			}
		})
	}
}
