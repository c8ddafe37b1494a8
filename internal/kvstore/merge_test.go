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
	// A source never holds two equal cells (the merge's precondition): keep
	// the first of any run of equal keys.
	for i := range out {
		s := out[i]
		sort.SliceStable(s, func(a, b int) bool { return compareCells(&s[a], &s[b]) < 0 })
		uniq := s[:0]
		for j := range s {
			if len(uniq) == 0 || compareCells(&uniq[len(uniq)-1], &s[j]) != 0 {
				uniq = append(uniq, s[j])
			}
		}
		out[i] = uniq
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
		tree.seekRange([]byte(probe.Row), nil)
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
						tree.seekRange([]byte(probe.Row), nil)
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

// countingIterator counts the cell reads the merge makes of one source.
type countingIterator struct {
	flatIterator
	reads int
}

func (it *countingIterator) cell() *Cell {
	it.reads++
	return it.flatIterator.cell()
}

// rangeRows positions the merge at the range and resolves its rows as
// MultiScanCtx does, rendering each as "row=value" (or "row=" when every
// version is hidden).
func rangeRows(m *mergeIterator, rg ScanRange) []string {
	m.seekRange([]byte(rg.Start), []byte(rg.Stop))
	var out []string
	var buf []Cell
	for cells := m.nextRow(&buf); cells != nil; cells = m.nextRow(&buf) {
		res := RowResult{Row: cells[0].Row, Cells: resolveRow(cells, int64(1)<<62, nil)}
		v := ""
		if !res.Empty() {
			v = string(res.Cells[0].Value)
		}
		out = append(out, res.Row+"="+v)
	}
	return out
}

func put(row string, ts int64, value string) Cell {
	return Cell{Row: row, Qualifier: "q", Timestamp: ts, Value: []byte(value)}
}

// TestMergeLiveSet pins the live set: the tournament of a range is played
// over the sources whose head is below its stop, a set that only shrinks
// inside the range and is formed anew for the next one.
func TestMergeLiveSet(t *testing.T) {
	t.Run("a source at or past stop is never compared", func(t *testing.T) {
		inRange := &countingIterator{flatIterator: flatIterator{cells: []Cell{put("a1", 1, "x"), put("a2", 1, "y")}}}
		atStop := &countingIterator{flatIterator: flatIterator{cells: []Cell{put("b", 1, "z")}}}
		pastStop := &countingIterator{flatIterator: flatIterator{cells: []Cell{put("c", 1, "w")}}}
		m := newMergeIterator([]cellIterator{atStop, pastStop, inRange})
		m.seekRange([]byte("a"), []byte("b"))
		if len(m.live) != 1 {
			t.Fatalf("live set has %d sources, want the one holding the range", len(m.live))
		}
		atStop.reads, pastStop.reads = 0, 0
		var got []string
		for ; m.valid(); m.next() {
			got = append(got, m.cell().Row)
		}
		if fmt.Sprint(got) != "[a1 a2]" || atStop.reads != 0 || pastStop.reads != 0 {
			t.Fatalf("range read %v with %d and %d reads of the sources at and past stop, want [a1 a2] and none", got, atStop.reads, pastStop.reads)
		}
	})
	t.Run("a newer live source's duplicate wins", func(t *testing.T) {
		newer := []Cell{put("k1", 5, "new")}
		older := []Cell{put("k0", 5, "old"), put("k1", 5, "old"), put("k2", 5, "old")}
		m := newMergeIterator(flatIterators([][]Cell{newer, older}))
		if got := rangeRows(m, ScanRange{"k", "l"}); fmt.Sprint(got) != "[k0=old k1=new k2=old]" {
			t.Fatalf("range read %v, want the newer k1 once", got)
		}
	})
	t.Run("a newer tombstone shadows a range an older source holds", func(t *testing.T) {
		newer := []Cell{{Row: "r2", Qualifier: "q", Timestamp: 9, Tombstone: true}}
		older := []Cell{put("r1", 1, "v"), put("r2", 1, "v"), put("r3", 1, "v")}
		m := newMergeIterator(flatIterators([][]Cell{newer, older}))
		if got := rangeRows(m, ScanRange{"r", "s"}); fmt.Sprint(got) != "[r1=v r2= r3=v]" {
			t.Fatalf("range read %v, want r2 hidden", got)
		}
	})
	t.Run("the live source running out ends the range", func(t *testing.T) {
		held := []Cell{put("a1", 1, "x"), put("a2", 1, "x")}
		later := []Cell{put("c1", 1, "y")}
		m := newMergeIterator(flatIterators([][]Cell{later, held}))
		if got := rangeRows(m, ScanRange{"a", "b"}); fmt.Sprint(got) != "[a1=x a2=x]" || m.valid() {
			t.Fatalf("range read %v and left the merge valid=%v, want [a1=x a2=x] and exhausted", got, m.valid())
		}
		if got := rangeRows(m, ScanRange{"c", "d"}); fmt.Sprint(got) != "[c1=y]" {
			t.Fatalf("next range read %v, want [c1=y]", got)
		}
	})
	t.Run("the next range re-forms the set", func(t *testing.T) {
		newer := []Cell{put("b5", 2, "new"), put("c2", 2, "new")}
		older := []Cell{put("a1", 1, "old"), put("a2", 1, "old"), put("a3", 1, "old"), put("b1", 1, "old"), put("b5", 2, "old"), put("b9", 1, "old")}
		m := newMergeIterator(flatIterators([][]Cell{newer, older}))
		if got := rangeRows(m, ScanRange{"a", "b"}); fmt.Sprint(got) != "[a1=old a2=old a3=old]" || len(m.live) != 1 {
			t.Fatalf("first range read %v over %d live sources, want the older source alone", got, len(m.live))
		}
		m.seekRange([]byte("b"), []byte("c"))
		if len(m.live) != 2 {
			t.Fatalf("second range has %d live sources, want 2", len(m.live))
		}
		if got := rangeRows(m, ScanRange{"b", "c"}); fmt.Sprint(got) != "[b1=old b5=new b9=old]" {
			t.Fatalf("second range read %v", got)
		}
		// The newer source left the set when it passed stop; the older one
		// ran out inside the range. Only the newer one holds the last range.
		if got := rangeRows(m, ScanRange{"c", ""}); fmt.Sprint(got) != "[c2=new]" || len(m.live) != 1 {
			t.Fatalf("last range read %v over %d live sources, want [c2=new] from one", got, len(m.live))
		}
	})
	t.Run("a source leaving mid-range shrinks the set to the winner", func(t *testing.T) {
		first := []Cell{put("a0", 1, "f")}
		rest := []Cell{put("a1", 1, "r"), put("a2", 1, "r"), put("a3", 1, "r"), put("a4", 1, "r")}
		m := newMergeIterator(flatIterators([][]Cell{first, rest}))
		if got := rangeRows(m, ScanRange{"a", "b"}); fmt.Sprint(got) != "[a0=f a1=r a2=r a3=r a4=r]" || len(m.live) != 1 {
			t.Fatalf("range read %v, %d live sources at its end, want every row and one", got, len(m.live))
		}
	})
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
