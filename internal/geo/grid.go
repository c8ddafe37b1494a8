package geo

import (
	"fmt"
	"math"
)

// Grid is a uniform spatial hash over a bounded region of the plane. It
// offers O(1) inserts and neighborhood queries proportional to the number of
// cells touched, which makes it the index of choice for DBSCAN eps-queries
// and for bulk proximity filtering of GPS traces against known POIs.
//
// The grid stores opaque integer ids; callers keep their own id → payload
// mapping. Grid is not safe for concurrent mutation.
type Grid struct {
	bounds     Rect
	cellLat    float64 // cell height in degrees
	cellLon    float64 // cell width in degrees
	cols, rows int
	cells      map[int64][]gridEntry
}

type gridEntry struct {
	id int64
	pt Point
}

// NewGrid creates a grid over bounds whose cells are approximately
// cellMeters × cellMeters at the center latitude of the bounds.
func NewGrid(bounds Rect, cellMeters float64) (*Grid, error) {
	if cellMeters <= 0 {
		return nil, fmt.Errorf("geo: grid cell size must be positive, got %g", cellMeters)
	}
	if bounds.MaxLat <= bounds.MinLat || bounds.MaxLon <= bounds.MinLon {
		return nil, fmt.Errorf("geo: degenerate grid bounds %+v", bounds)
	}
	centerLat := (bounds.MinLat + bounds.MaxLat) / 2
	cellLat := MetersToLatDegrees(cellMeters)
	cellLon := MetersToLonDegrees(cellMeters, centerLat)
	cols := int(math.Ceil((bounds.MaxLon - bounds.MinLon) / cellLon))
	rows := int(math.Ceil((bounds.MaxLat - bounds.MinLat) / cellLat))
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return &Grid{
		bounds:  bounds,
		cellLat: cellLat,
		cellLon: cellLon,
		cols:    cols,
		rows:    rows,
		cells:   make(map[int64][]gridEntry),
	}, nil
}

func (g *Grid) cellOf(p Point) (int, int) {
	col := int((p.Lon - g.bounds.MinLon) / g.cellLon)
	row := int((p.Lat - g.bounds.MinLat) / g.cellLat)
	if col < 0 {
		col = 0
	}
	if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	}
	if row >= g.rows {
		row = g.rows - 1
	}
	return row, col
}

func (g *Grid) key(row, col int) int64 {
	return int64(row)*int64(g.cols) + int64(col)
}

// Insert adds a point with the given id. Points outside the bounds are
// clamped into the border cells so that no data is silently dropped.
func (g *Grid) Insert(id int64, p Point) {
	row, col := g.cellOf(p)
	k := g.key(row, col)
	g.cells[k] = append(g.cells[k], gridEntry{id: id, pt: p})
}

// WithinRadius appends to dst the ids of all points within radiusMeters of
// center (haversine-verified) and returns the extended slice.
func (g *Grid) WithinRadius(dst []int64, center Point, radiusMeters float64) []int64 {
	r := RectAround(center, radiusMeters)
	minRow, minCol := g.cellOf(Point{Lat: r.MinLat, Lon: r.MinLon})
	maxRow, maxCol := g.cellOf(Point{Lat: r.MaxLat, Lon: r.MaxLon})
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			for _, e := range g.cells[g.key(row, col)] {
				if Haversine(center, e.pt) <= radiusMeters {
					dst = append(dst, e.id)
				}
			}
		}
	}
	return dst
}
