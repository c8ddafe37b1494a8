package dbscan

import (
	"math/rand"
	"testing"

	"modissense/internal/cluster"
	"modissense/internal/geo"
)

// blob generates n points normally scattered (sigmaMeters) around center.
func blob(rng *rand.Rand, center geo.Point, n int, sigmaMeters float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		dLat := geo.MetersToLatDegrees(rng.NormFloat64() * sigmaMeters)
		dLon := geo.MetersToLonDegrees(rng.NormFloat64()*sigmaMeters, center.Lat)
		pts[i] = geo.Point{Lat: center.Lat + dLat, Lon: center.Lon + dLon}
	}
	return pts
}

// scatter generates n uniform points in the rect.
func scatter(rng *rand.Rand, r geo.Rect, n int) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{
			Lat: r.MinLat + rng.Float64()*(r.MaxLat-r.MinLat),
			Lon: r.MinLon + rng.Float64()*(r.MaxLon-r.MinLon),
		}
	}
	return pts
}

func athensArea() geo.Rect {
	return geo.Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.15, MaxLon: 23.95}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Eps: 0, MinPts: 3}).Validate(); err == nil {
		t.Error("zero eps must fail")
	}
	if err := (Params{Eps: 10, MinPts: 0}).Validate(); err == nil {
		t.Error("zero minPts must fail")
	}
	if _, err := Sequential(nil, Params{Eps: -1, MinPts: 1}); err == nil {
		t.Error("Sequential must validate params")
	}
}

func TestSequentialFindsPlantedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	centers := []geo.Point{
		{Lat: 37.9838, Lon: 23.7275}, // Syntagma
		{Lat: 37.9715, Lon: 23.7267}, // Acropolis
		{Lat: 38.0444, Lon: 23.8000},
	}
	var pts []geo.Point
	for _, c := range centers {
		pts = append(pts, blob(rng, c, 60, 30)...)
	}
	pts = append(pts, scatter(rng, athensArea(), 40)...)

	res, err := Sequential(pts, Params{Eps: 100, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Fatalf("found %d clusters, want 3 (labels %v)", res.NumClusters, res.Labels)
	}
	// Every planted blob should map (mostly) to a single cluster.
	for b := 0; b < 3; b++ {
		counts := map[int]int{}
		for i := b * 60; i < (b+1)*60; i++ {
			counts[res.Labels[i]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		if best < 55 {
			t.Errorf("blob %d fragmented: %v", b, counts)
		}
	}
	// Centroids should be near the planted centers.
	cents := res.Centroids(pts)
	for _, c := range centers {
		nearest := 1e18
		for _, g := range cents {
			if d := geo.Haversine(c, g); d < nearest {
				nearest = d
			}
		}
		if nearest > 50 {
			t.Errorf("no centroid within 50 m of %v (nearest %.1f m)", c, nearest)
		}
	}
}

func TestSequentialAllNoiseAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := scatter(rng, athensArea(), 50)
	res, err := Sequential(pts, Params{Eps: 5, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("sparse scatter produced %d clusters", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d labeled %d, want noise", i, l)
		}
	}
	empty, err := Sequential(nil, Params{Eps: 10, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumClusters != 0 || len(empty.Labels) != 0 {
		t.Error("empty input must produce empty result")
	}
}

func TestSequentialMinPtsOne(t *testing.T) {
	// With MinPts=1 every point is its own core; isolated points become
	// singleton clusters, not noise.
	pts := []geo.Point{{Lat: 37.9, Lon: 23.7}, {Lat: 38.1, Lon: 23.9}}
	res, err := Sequential(pts, Params{Eps: 10, MinPts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("clusters = %d, want 2", res.NumClusters)
	}
}

// sameClusterStructure verifies that two results agree on: the core-point
// set, the partition of core points into clusters, the noise set, and that
// every border point in each result sits in a cluster that also holds a
// core point within eps of it in the other result's structure. Border
// assignment ties are inherent to DBSCAN, so only validity is checked.
func sameClusterStructure(t *testing.T, pts []geo.Point, p Params, a, b *Result) {
	t.Helper()
	if len(a.Labels) != len(b.Labels) {
		t.Fatalf("label lengths differ: %d vs %d", len(a.Labels), len(b.Labels))
	}
	for i := range pts {
		if a.Core[i] != b.Core[i] {
			t.Fatalf("core status of point %d differs: %v vs %v", i, a.Core[i], b.Core[i])
		}
		if (a.Labels[i] == Noise) != (b.Labels[i] == Noise) {
			t.Fatalf("noise status of point %d differs: %d vs %d", i, a.Labels[i], b.Labels[i])
		}
	}
	// Core partition must be identical up to relabeling: check pairwise on
	// a sample plus full bijection via mapping.
	mapAB := map[int]int{}
	mapBA := map[int]int{}
	for i := range pts {
		if !a.Core[i] {
			continue
		}
		la, lb := a.Labels[i], b.Labels[i]
		if prev, ok := mapAB[la]; ok && prev != lb {
			t.Fatalf("core clusters inconsistent: a-label %d maps to both %d and %d", la, prev, lb)
		}
		if prev, ok := mapBA[lb]; ok && prev != la {
			t.Fatalf("core clusters inconsistent: b-label %d maps to both %d and %d", lb, prev, la)
		}
		mapAB[la] = lb
		mapBA[lb] = la
	}
	// Border validity: a border point's cluster must contain a core point
	// within eps (checked against its own result).
	checkBorders := func(r *Result, name string) {
		for i := range pts {
			if r.Core[i] || r.Labels[i] == Noise {
				continue
			}
			ok := false
			for j := range pts {
				if r.Core[j] && r.Labels[j] == r.Labels[i] && geo.Haversine(pts[i], pts[j]) <= p.Eps {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%s: border point %d in cluster %d has no core within eps", name, i, r.Labels[i])
			}
		}
	}
	checkBorders(a, "a")
	checkBorders(b, "b")
}

// TestMRDBSCANMatchesSequential is the core equivalence property: the
// distributed clustering reproduces the sequential one on randomized
// workloads across partition counts.
func TestMRDBSCANMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		var pts []geo.Point
		nBlobs := 2 + rng.Intn(4)
		for b := 0; b < nBlobs; b++ {
			c := geo.Point{
				Lat: 37.8 + rng.Float64()*0.35,
				Lon: 23.5 + rng.Float64()*0.45,
			}
			pts = append(pts, blob(rng, c, 30+rng.Intn(50), 20+rng.Float64()*40)...)
		}
		pts = append(pts, scatter(rng, athensArea(), 60)...)
		p := Params{Eps: 80 + rng.Float64()*60, MinPts: 4 + rng.Intn(5)}

		seq, err := Sequential(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{1, 4, 9, 16} {
			mr, err := MRDBSCAN(pts, p, MROptions{Partitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			if mr.NumClusters != seq.NumClusters {
				t.Fatalf("trial %d parts %d: %d clusters, sequential %d", trial, parts, mr.NumClusters, seq.NumClusters)
			}
			sameClusterStructure(t, pts, p, seq, &mr.Result)
		}
	}
}

func TestMRDBSCANValidation(t *testing.T) {
	if _, err := MRDBSCAN(nil, Params{Eps: 1, MinPts: 1}, MROptions{Partitions: 0}); err == nil {
		t.Error("zero partitions must fail")
	}
	res, err := MRDBSCAN(nil, Params{Eps: 1, MinPts: 1}, MROptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Error("empty input must produce no clusters")
	}
}

func TestMRDBSCANSimulatedSpeedup(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var pts []geo.Point
	for b := 0; b < 10; b++ {
		c := geo.Point{Lat: 37.8 + rng.Float64()*0.35, Lon: 23.5 + rng.Float64()*0.45}
		pts = append(pts, blob(rng, c, 200, 40)...)
	}
	p := Params{Eps: 100, MinPts: 5}
	makespan := func(nodes int) float64 {
		c, err := cluster.New(cluster.DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		res, err := MRDBSCAN(pts, p, MROptions{Partitions: 32, Cluster: c})
		if err != nil {
			t.Fatal(err)
		}
		if res.SimulatedSeconds <= 0 {
			t.Fatal("expected positive simulated time")
		}
		return res.SimulatedSeconds
	}
	m4, m16 := makespan(4), makespan(16)
	if m16 >= m4 {
		t.Errorf("16-node makespan %g must beat 4-node %g", m16, m4)
	}
}

func TestFilterNearPOIs(t *testing.T) {
	pois := []geo.Point{{Lat: 37.9838, Lon: 23.7275}}
	pts := []geo.Point{
		{Lat: 37.9838, Lon: 23.7275},  // exactly at the POI
		{Lat: 37.98385, Lon: 23.7276}, // ~10 m away
		{Lat: 37.99, Lon: 23.74},      // ~1.3 km away
	}
	keep, err := FilterNearPOIs(pts, pois, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 1 || keep[0] != 2 {
		t.Errorf("keep = %v, want [2]", keep)
	}
	// No POIs → keep everything.
	keep, err = FilterNearPOIs(pts, nil, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(keep) != 3 {
		t.Errorf("keep without POIs = %v", keep)
	}
	if _, err := FilterNearPOIs(pts, pois, -1); err == nil {
		t.Error("negative radius must fail")
	}
}

func BenchmarkSequentialDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	var pts []geo.Point
	for c := 0; c < 20; c++ {
		center := geo.Point{Lat: 37.8 + rng.Float64()*0.35, Lon: 23.5 + rng.Float64()*0.45}
		pts = append(pts, blob(rng, center, 100, 40)...)
	}
	p := Params{Eps: 100, MinPts: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sequential(pts, p); err != nil {
			b.Fatal(err)
		}
	}
}
