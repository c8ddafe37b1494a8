package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHaversineKnownDistances(t *testing.T) {
	athens := Point{Lat: 37.9838, Lon: 23.7275}
	thessaloniki := Point{Lat: 40.6401, Lon: 22.9444}
	melbourne := Point{Lat: -37.8136, Lon: 144.9631}

	cases := []struct {
		name    string
		a, b    Point
		wantKm  float64
		tolerKm float64
	}{
		{"athens-thessaloniki", athens, thessaloniki, 301, 5},
		{"athens-melbourne", athens, melbourne, 14950, 100},
		{"london-newyork", Point{Lat: 51.5074, Lon: -0.1278}, Point{Lat: 40.7128, Lon: -74.0060}, 5570, 50},
		{"same-point", athens, athens, 0, 0.001},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Haversine(c.a, c.b) / 1000
			if math.Abs(got-c.wantKm) > c.tolerKm {
				t.Errorf("Haversine(%v,%v) = %.1f km, want %.1f±%.1f", c.a, c.b, got, c.wantKm, c.tolerKm)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: clampLat(lat1), Lon: clampLon(lon1)}
		b := Point{Lat: clampLat(lat2), Lon: clampLon(lon2)}
		d1, d2 := Haversine(a, b), Haversine(b, a)
		return math.Abs(d1-d2) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := randPoint(rng)
		b := randPoint(rng)
		c := randPoint(rng)
		if Haversine(a, c) > Haversine(a, b)+Haversine(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func clampLat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 180) - 90
}

func clampLon(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(math.Abs(v), 360) - 180
}

func randPoint(rng *rand.Rand) Point {
	return Point{Lat: rng.Float64()*170 - 85, Lon: rng.Float64()*360 - 180}
}

func TestRectContainsAndIntersects(t *testing.T) {
	r := Rect{MinLat: 37, MinLon: 23, MaxLat: 38, MaxLon: 24}
	if !r.Contains(Point{Lat: 37.5, Lon: 23.5}) {
		t.Error("point inside should be contained")
	}
	if r.Contains(Point{Lat: 36.9, Lon: 23.5}) {
		t.Error("point below should not be contained")
	}
	if !r.Contains(Point{Lat: 37, Lon: 23}) {
		t.Error("border should be inclusive")
	}
	s := Rect{MinLat: 37.5, MinLon: 23.5, MaxLat: 39, MaxLon: 25}
	if !r.Intersects(s) || !s.Intersects(r) {
		t.Error("overlapping rects must intersect symmetrically")
	}
	far := Rect{MinLat: 50, MinLon: 0, MaxLat: 51, MaxLon: 1}
	if r.Intersects(far) {
		t.Error("disjoint rects must not intersect")
	}
}

// containsRect reports whether s lies entirely inside r.
func containsRect(r, s Rect) bool {
	return s.MinLat >= r.MinLat && s.MaxLat <= r.MaxLat &&
		s.MinLon >= r.MinLon && s.MaxLon <= r.MaxLon
}

func TestRectUnionContainsBoth(t *testing.T) {
	f := func(a1, o1, a2, o2, a3, o3, a4, o4 float64) bool {
		r := NewRect(Point{clampLat(a1), clampLon(o1)}, Point{clampLat(a2), clampLon(o2)})
		s := NewRect(Point{clampLat(a3), clampLon(o3)}, Point{clampLat(a4), clampLon(o4)})
		u := r.Union(s)
		return containsRect(u, r) && containsRect(u, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectExpandContainsOriginal(t *testing.T) {
	r := Rect{MinLat: 37, MinLon: 23, MaxLat: 38, MaxLon: 24}
	e := r.Expand(5000)
	if !containsRect(e, r) {
		t.Errorf("expanded rect %+v must contain original %+v", e, r)
	}
	// The margin should be roughly 5km in latitude.
	gotMeters := (r.MinLat - e.MinLat) * math.Pi / 180 * EarthRadiusMeters
	if math.Abs(gotMeters-5000) > 1 {
		t.Errorf("latitude margin = %.1f m, want 5000", gotMeters)
	}
}

func TestRectAroundContainsCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		center := Point{Lat: rng.Float64()*140 - 70, Lon: rng.Float64()*360 - 180}
		radius := rng.Float64()*20000 + 1
		r := RectAround(center, radius)
		// Sample points on the circle: they must fall inside the rect
		// (up to tiny numeric slack).
		for k := 0; k < 8; k++ {
			theta := float64(k) * math.Pi / 4
			p := Point{
				Lat: center.Lat + MetersToLatDegrees(radius*math.Cos(theta))*0.999,
				Lon: center.Lon + MetersToLonDegrees(radius*math.Sin(theta), center.Lat)*0.999,
			}
			if p.Lat > 90 || p.Lat < -90 || p.Lon > 180 || p.Lon < -180 {
				continue
			}
			if !r.Contains(p) {
				t.Fatalf("circle point %v outside RectAround(%v, %.0f) = %+v", p, center, radius, r)
			}
		}
	}
}

func TestMetersToLonDegreesPoles(t *testing.T) {
	if d := MetersToLonDegrees(1000, 90); d != 180 {
		t.Errorf("at the pole conversion should saturate to 180, got %g", d)
	}
	d := MetersToLonDegrees(111195, 0) // ~1 degree at the equator
	if math.Abs(d-1) > 0.01 {
		t.Errorf("1 degree at equator, got %g", d)
	}
}
