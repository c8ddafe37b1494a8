// Package dbscan implements the event-detection substrate of the platform:
// the DBSCAN density clustering algorithm over GPS traces, both as a
// sequential oracle and as the distributed MR-DBSCAN formulation of He et
// al. (ICPADS 2011) that the paper deploys on Hadoop. Dense concentrations
// of traces signify new POIs or trending events.
package dbscan

import (
	"fmt"

	"modissense/internal/geo"
)

// Noise is the label of points that belong to no cluster.
const Noise = -1

// Params are the DBSCAN density parameters.
type Params struct {
	// Eps is the neighborhood radius in meters.
	Eps float64
	// MinPts is the minimum neighborhood size (including the point itself)
	// for a point to be a core point.
	MinPts int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("dbscan: eps must be positive, got %g", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: minPts must be >= 1, got %d", p.MinPts)
	}
	return nil
}

// Result is a clustering outcome over the input point slice.
type Result struct {
	// Labels[i] is the cluster of input point i, or Noise. Cluster ids are
	// dense, starting at 0.
	Labels []int
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Core[i] reports whether point i is a core point.
	Core []bool
}

// Centroids returns the mean coordinate of each cluster — the location of
// a detected event/POI.
func (r *Result) Centroids(pts []geo.Point) []geo.Point {
	sums := make([]geo.Point, r.NumClusters)
	counts := make([]int, r.NumClusters)
	for i, l := range r.Labels {
		if l >= 0 {
			sums[l].Lat += pts[i].Lat
			sums[l].Lon += pts[i].Lon
			counts[l]++
		}
	}
	for i := range sums {
		if counts[i] > 0 {
			sums[i].Lat /= float64(counts[i])
			sums[i].Lon /= float64(counts[i])
		}
	}
	return sums
}

// boundsOf computes the bounding rect of the points (with a tiny margin so
// grid construction never degenerates).
func boundsOf(pts []geo.Point) geo.Rect {
	r := geo.Rect{MinLat: 90, MinLon: 180, MaxLat: -90, MaxLon: -180}
	for _, p := range pts {
		if p.Lat < r.MinLat {
			r.MinLat = p.Lat
		}
		if p.Lat > r.MaxLat {
			r.MaxLat = p.Lat
		}
		if p.Lon < r.MinLon {
			r.MinLon = p.Lon
		}
		if p.Lon > r.MaxLon {
			r.MaxLon = p.Lon
		}
	}
	const margin = 1e-6
	r.MinLat -= margin
	r.MinLon -= margin
	r.MaxLat += margin
	r.MaxLon += margin
	return r
}

// Sequential runs grid-accelerated DBSCAN over the points. It is both a
// production code path (small batches) and the correctness oracle for
// MR-DBSCAN.
func Sequential(pts []geo.Point, p Params) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Labels: make([]int, len(pts)),
		Core:   make([]bool, len(pts)),
	}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if len(pts) == 0 {
		return res, nil
	}

	grid, err := geo.NewGrid(boundsOf(pts), p.Eps)
	if err != nil {
		return nil, err
	}
	for i, pt := range pts {
		grid.Insert(int64(i), pt)
	}
	neighbors := func(i int, buf []int64) []int64 {
		return grid.WithinRadius(buf[:0], pts[i], p.Eps)
	}

	var nbuf, expandBuf []int64
	visited := make([]bool, len(pts))
	cluster := 0
	for i := range pts {
		if visited[i] {
			continue
		}
		visited[i] = true
		nbuf = neighbors(i, nbuf)
		if len(nbuf) < p.MinPts {
			continue // stays Noise unless later absorbed as a border point
		}
		// Start a new cluster and expand via a worklist.
		res.Core[i] = true
		res.Labels[i] = cluster
		work := append([]int64(nil), nbuf...)
		for len(work) > 0 {
			j := int(work[len(work)-1])
			work = work[:len(work)-1]
			if res.Labels[j] == Noise {
				res.Labels[j] = cluster // border or to-be-core
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			expandBuf = neighbors(j, expandBuf)
			if len(expandBuf) >= p.MinPts {
				res.Core[j] = true
				work = append(work, expandBuf...)
			}
		}
		cluster++
	}
	res.NumClusters = cluster
	return res, nil
}

// FilterNearPOIs returns the indices of points that are farther than
// radius from every known POI. The paper applies this before clustering so
// already-known POIs are not re-detected ("traces falling near to existing
// POIs ... are filtered out").
func FilterNearPOIs(pts, pois []geo.Point, radius float64) ([]int, error) {
	if radius < 0 {
		return nil, fmt.Errorf("dbscan: negative filter radius %g", radius)
	}
	if len(pois) == 0 {
		out := make([]int, len(pts))
		for i := range pts {
			out[i] = i
		}
		return out, nil
	}
	grid, err := geo.NewGrid(boundsOf(pois), maxF(radius, 1))
	if err != nil {
		return nil, err
	}
	for i, p := range pois {
		grid.Insert(int64(i), p)
	}
	var out []int
	var buf []int64
	for i, p := range pts {
		buf = grid.WithinRadius(buf[:0], p, radius)
		if len(buf) == 0 {
			out = append(out, i)
		}
	}
	return out, nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
