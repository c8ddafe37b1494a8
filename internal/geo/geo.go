// Package geo provides the geodesic primitives and spatial indexes used by
// every spatio-temporal component of the platform: points, bounding boxes,
// haversine distances, a uniform grid index and an R-tree.
//
// All coordinates are expressed in decimal degrees (WGS-84); distances are in
// meters. The package is self-contained and has no dependency on the rest of
// the platform so that the clustering, trajectory and query packages can all
// share a single spatial vocabulary.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by all distance
// computations in the platform.
const EarthRadiusMeters = 6371000.0

// Point is a WGS-84 coordinate pair.
type Point struct {
	Lat float64 // latitude in degrees, south is negative
	Lon float64 // longitude in degrees, west is negative
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lat, p.Lon)
}

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	lat1 := a.Lat * math.Pi / 180
	lat2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Rect is an axis-aligned bounding box in degree space. It represents the
// map bounding box of a search query as well as internal index cells.
// A Rect never wraps the antimeridian; queries crossing it must be split by
// the caller.
type Rect struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// NewRect builds a normalized Rect from two corner points given in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinLat: math.Min(a.Lat, b.Lat),
		MinLon: math.Min(a.Lon, b.Lon),
		MaxLat: math.Max(a.Lat, b.Lat),
		MaxLon: math.Max(a.Lon, b.Lon),
	}
}

// Contains reports whether p lies inside r (borders inclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Intersects reports whether r and s overlap (borders inclusive).
func (r Rect) Intersects(s Rect) bool {
	return r.MinLat <= s.MaxLat && s.MinLat <= r.MaxLat &&
		r.MinLon <= s.MaxLon && s.MinLon <= r.MaxLon
}

// Union returns the smallest Rect covering both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, s.MinLat),
		MinLon: math.Min(r.MinLon, s.MinLon),
		MaxLat: math.Max(r.MaxLat, s.MaxLat),
		MaxLon: math.Max(r.MaxLon, s.MaxLon),
	}
}

// Area returns the area of r in square degrees. Degree area is only used to
// compare candidate index nodes against each other, never as a physical
// quantity.
func (r Rect) Area() float64 {
	return (r.MaxLat - r.MinLat) * (r.MaxLon - r.MinLon)
}

// Expand grows the Rect by the given margin in meters on every side,
// converting meters to degrees at the Rect's latitude. It is used by
// MR-DBSCAN to build eps-overlapping partitions and by proximity filters.
func (r Rect) Expand(meters float64) Rect {
	dLat := MetersToLatDegrees(meters)
	// Use the latitude closest to the pole for the most conservative
	// (widest) longitude expansion.
	lat := math.Max(math.Abs(r.MinLat), math.Abs(r.MaxLat))
	dLon := MetersToLonDegrees(meters, lat)
	return Rect{
		MinLat: math.Max(r.MinLat-dLat, -90),
		MinLon: math.Max(r.MinLon-dLon, -180),
		MaxLat: math.Min(r.MaxLat+dLat, 90),
		MaxLon: math.Min(r.MaxLon+dLon, 180),
	}
}

// MetersToLatDegrees converts a north-south distance to latitude degrees.
func MetersToLatDegrees(meters float64) float64 {
	return meters / EarthRadiusMeters * 180 / math.Pi
}

// MetersToLonDegrees converts an east-west distance at the given latitude to
// longitude degrees. Near the poles a single meter spans many degrees; the
// conversion saturates at 180 to stay within the coordinate domain.
func MetersToLonDegrees(meters, latDegrees float64) float64 {
	c := math.Cos(latDegrees * math.Pi / 180)
	if c < 1e-9 {
		return 180
	}
	d := meters / (EarthRadiusMeters * c) * 180 / math.Pi
	if d > 180 {
		return 180
	}
	return d
}

// RectAround returns the bounding box of the circle centered at p with the
// given radius in meters. Candidate sets produced from it must still be
// verified with Haversine; the Rect is only a superset filter.
func RectAround(p Point, radiusMeters float64) Rect {
	dLat := MetersToLatDegrees(radiusMeters)
	dLon := MetersToLonDegrees(radiusMeters, p.Lat)
	return Rect{
		MinLat: math.Max(p.Lat-dLat, -90),
		MinLon: math.Max(p.Lon-dLon, -180),
		MaxLat: math.Min(p.Lat+dLat, 90),
		MaxLon: math.Min(p.Lon+dLon, 180),
	}
}
