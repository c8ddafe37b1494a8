package geo

import (
	"math/rand"
	"sort"
	"testing"
)

// referenceWithinRadius is the O(n) oracle for radius queries.
func referenceWithinRadius(pts []Point, center Point, radius float64) []int64 {
	var out []int64
	for i, p := range pts {
		if Haversine(center, p) <= radius {
			out = append(out, int64(i))
		}
	}
	return out
}

// referenceInRect is the O(n) oracle for rectangle queries.
func referenceInRect(pts []Point, r Rect) []int64 {
	var out []int64
	for i, p := range pts {
		if r.Contains(p) {
			out = append(out, int64(i))
		}
	}
	return out
}

func sortedEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func greeceBounds() Rect {
	return Rect{MinLat: 34.8, MinLon: 19.3, MaxLat: 41.8, MaxLon: 28.3}
}

func randPointIn(rng *rand.Rand, r Rect) Point {
	return Point{
		Lat: r.MinLat + rng.Float64()*(r.MaxLat-r.MinLat),
		Lon: r.MinLon + rng.Float64()*(r.MaxLon-r.MinLon),
	}
}

func TestGridMatchesReferenceRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bounds := greeceBounds()
	g, err := NewGrid(bounds, 5000)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = randPointIn(rng, bounds)
		g.Insert(int64(i), pts[i])
	}
	for q := 0; q < 50; q++ {
		center := randPointIn(rng, bounds)
		radius := rng.Float64()*50000 + 100
		got := g.WithinRadius(nil, center, radius)
		want := referenceWithinRadius(pts, center, radius)
		if !sortedEqual(got, want) {
			t.Fatalf("grid radius query mismatch at %v r=%.0f: got %d ids, want %d", center, radius, len(got), len(want))
		}
	}
}

func TestGridRejectsBadParams(t *testing.T) {
	if _, err := NewGrid(greeceBounds(), 0); err == nil {
		t.Error("expected error for zero cell size")
	}
	if _, err := NewGrid(Rect{MinLat: 1, MaxLat: 1, MinLon: 0, MaxLon: 1}, 100); err == nil {
		t.Error("expected error for degenerate bounds")
	}
}

func TestGridClampsOutOfBoundsPoints(t *testing.T) {
	g, err := NewGrid(greeceBounds(), 5000)
	if err != nil {
		t.Fatal(err)
	}
	outside := Point{Lat: 52.5, Lon: 13.4} // Berlin, outside Greece bounds
	g.Insert(1, outside)
	got := g.WithinRadius(nil, outside, 1000)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("clamped point must remain findable, got %v", got)
	}
}

func TestRTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	bounds := greeceBounds()
	tree, err := NewRTree(16)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 3000)
	for i := range pts {
		pts[i] = randPointIn(rng, bounds)
		tree.InsertPoint(int64(i), pts[i])
	}
	if got := tree.Search(nil, bounds); len(got) != len(pts) {
		t.Fatalf("rtree holds %d ids, want %d", len(got), len(pts))
	}
	if _, err := NewRTree(2); err == nil {
		t.Error("expected error for tiny fan-out")
	}
	for q := 0; q < 60; q++ {
		a, b := randPointIn(rng, bounds), randPointIn(rng, bounds)
		r := NewRect(a, b)
		got := tree.Search(nil, r)
		want := referenceInRect(pts, r)
		if !sortedEqual(got, want) {
			t.Fatalf("rtree search mismatch for %+v: got %d want %d", r, len(got), len(want))
		}
	}
}

func BenchmarkRTreeSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	bounds := greeceBounds()
	tree, err := NewRTree(16)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8500; i++ { // the POI catalog size from the paper
		tree.InsertPoint(int64(i), randPointIn(rng, bounds))
	}
	query := RectAround(Point{Lat: 37.98, Lon: 23.72}, 10000)
	var buf []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tree.Search(buf[:0], query)
	}
}

func BenchmarkGridWithinRadius(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	bounds := greeceBounds()
	g, err := NewGrid(bounds, 2000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		g.Insert(int64(i), randPointIn(rng, bounds))
	}
	center := Point{Lat: 37.98, Lon: 23.72}
	var buf []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.WithinRadius(buf[:0], center, 500)
	}
}

func TestRTreeDeleteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	bounds := greeceBounds()
	tree, err := NewRTree(8)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, 1200)
	alive := make([]bool, len(pts))
	for i := range pts {
		pts[i] = randPointIn(rng, bounds)
		tree.InsertPoint(int64(i), pts[i])
		alive[i] = true
	}
	// Interleave deletions and queries.
	for round := 0; round < 40; round++ {
		// Delete a random batch of live points.
		for k := 0; k < 20; k++ {
			i := rng.Intn(len(pts))
			got := tree.Delete(int64(i), NewRect(pts[i], pts[i]))
			if got != alive[i] {
				t.Fatalf("round %d: Delete(%d) = %v, want %v", round, i, got, alive[i])
			}
			alive[i] = false
		}
		// Deleting a never-inserted id fails cleanly.
		if p := randPointIn(rng, bounds); tree.Delete(int64(len(pts)+1), NewRect(p, p)) {
			t.Fatal("deleting a missing entry must return false")
		}
		// Random rect queries must match the oracle over live points.
		a, b := randPointIn(rng, bounds), randPointIn(rng, bounds)
		r := NewRect(a, b)
		got := tree.Search(nil, r)
		var want []int64
		for i, p := range pts {
			if alive[i] && r.Contains(p) {
				want = append(want, int64(i))
			}
		}
		if !sortedEqual(got, want) {
			t.Fatalf("round %d: search mismatch after deletes: got %d want %d", round, len(got), len(want))
		}
	}
	// Count survivors.
	live := 0
	for _, a := range alive {
		if a {
			live++
		}
	}
	if got := tree.Search(nil, bounds); len(got) != live {
		t.Errorf("tree holds %d ids, want %d", len(got), live)
	}
	// Delete everything; the tree must empty out and stay usable.
	for i := range pts {
		if alive[i] {
			if !tree.Delete(int64(i), NewRect(pts[i], pts[i])) {
				t.Fatalf("final delete of %d failed", i)
			}
			alive[i] = false
		}
	}
	if got := tree.Search(nil, bounds); len(got) != 0 {
		t.Errorf("emptied tree holds %v", got)
	}
	tree.InsertPoint(7, pts[7])
	if got := tree.Search(nil, greeceBounds()); len(got) != 1 || got[0] != 7 {
		t.Errorf("reuse after emptying broken: %v", got)
	}
}
