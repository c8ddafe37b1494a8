package dbscan

import (
	"fmt"
	"math"
	"sort"

	"modissense/internal/cluster"
	"modissense/internal/geo"
	"modissense/internal/mapreduce"
)

// MROptions configure the distributed MR-DBSCAN execution.
type MROptions struct {
	// Partitions is the number of spatial partitions (map tasks). The
	// space is tiled into a near-square grid of this many cells.
	Partitions int
	// Cluster, when non-nil, models the job schedule on the simulated
	// cluster and reports the makespan.
	Cluster *cluster.Cluster
}

// MRResult extends Result with distributed-execution metadata.
type MRResult struct {
	Result
	// SimulatedSeconds is the modeled makespan (0 without a cluster).
	SimulatedSeconds float64
	// Partitions is the number of map tasks used.
	Partitions int
}

// membership records one partition's local clustering verdict for a point.
type membership struct {
	Point     int // global point index
	Partition int
	LocalID   int  // local cluster id within the partition, -1 for noise
	Core      bool // locally determined core status (implies global core)
}

// partitionTask is one map task: a spatial cell with its eps-halo points.
type partitionTask struct {
	id      int
	indices []int // global indices of points in the expanded window
	inner   geo.Rect
}

// MRDBSCAN runs the distributed DBSCAN of He et al.: the space is tiled
// into partitions expanded by eps, each map task clusters its window
// locally, and the merge phase joins local clusters that share a globally
// core point. With halo width = eps this reproduces the sequential
// clustering exactly on core points (border-point ties are inherent to
// DBSCAN and resolved deterministically).
func MRDBSCAN(pts []geo.Point, p Params, opt MROptions) (*MRResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.Partitions < 1 {
		return nil, fmt.Errorf("dbscan: partitions must be >= 1, got %d", opt.Partitions)
	}
	res := &MRResult{
		Result: Result{
			Labels: make([]int, len(pts)),
			Core:   make([]bool, len(pts)),
		},
		Partitions: opt.Partitions,
	}
	for i := range res.Labels {
		res.Labels[i] = Noise
	}
	if len(pts) == 0 {
		return res, nil
	}

	tasks := buildPartitions(pts, p.Eps, opt.Partitions)

	// ----- Map phase: local DBSCAN per partition (as an MR job). -----
	input := make([][]interface{}, len(tasks))
	for i := range tasks {
		input[i] = []interface{}{&tasks[i]}
	}
	mapper := mapreduce.MapperFunc(func(record interface{}, emit func(string, interface{})) error {
		task := record.(*partitionTask)
		window := make([]geo.Point, len(task.indices))
		for i, gi := range task.indices {
			window[i] = pts[gi]
		}
		local, err := Sequential(window, p)
		if err != nil {
			return err
		}
		for li, gi := range task.indices {
			if local.Labels[li] == Noise && !local.Core[li] {
				continue
			}
			emit(pointKey(gi), membership{
				Point:     gi,
				Partition: task.id,
				LocalID:   local.Labels[li],
				Core:      local.Core[li],
			})
		}
		return nil
	})
	// Reduce phase: group memberships per point.
	reducer := mapreduce.ReducerFunc(func(key string, values []interface{}, emit func(string, interface{})) error {
		ms := make([]membership, len(values))
		for i, v := range values {
			ms[i] = v.(membership)
		}
		emit(key, ms)
		return nil
	})
	job := &mapreduce.Job{
		Name:        "mr-dbscan",
		Input:       input,
		Mapper:      mapper,
		Reducer:     reducer,
		NumReducers: minI(opt.Partitions, 8),
	}
	mrRes, err := job.Run()
	if err != nil {
		return nil, err
	}
	if opt.Cluster != nil {
		// Model the schedule directly from partition sizes: each map task's
		// cost is proportional to the points it clusters (a partitionTask is
		// a single MR record, so the generic per-record model would be flat),
		// and the merge runs as one reduce over every emitted membership.
		points := make([]int, len(tasks))
		for i := range tasks {
			points[i] = len(tasks[i].indices)
		}
		res.SimulatedSeconds, err = mapreduce.SimulateSchedule(opt.Cluster, points, []int{len(mrRes.Output)})
		if err != nil {
			return nil, err
		}
	}

	// ----- Merge phase: union-find over (partition, localID) clusters. -----
	uf := newUnionFind()
	pointMemberships := make(map[int][]membership, len(pts))
	for _, pair := range mrRes.Output {
		ms := pair.Value.([]membership)
		pt := ms[0].Point
		pointMemberships[pt] = ms
		core := false
		for _, m := range ms {
			if m.Core {
				core = true
				break
			}
		}
		if core {
			res.Core[pt] = true
			// All local clusters containing a globally core point merge.
			var first string
			for _, m := range ms {
				if m.LocalID < 0 {
					continue
				}
				key := clusterKey(m.Partition, m.LocalID)
				if first == "" {
					first = key
					uf.add(key)
				} else {
					uf.union(first, key)
				}
			}
		}
	}

	// ----- Label assignment. -----
	// Collect final cluster representatives that contain at least one core
	// point; local clusters never touched by a core point stay unmerged and
	// are dropped (they cannot exist: every local cluster has a local core,
	// which is a global core — but guard anyway).
	repID := map[string]int{}
	// Deterministic order: sort points, cores first assign representatives.
	order := make([]int, 0, len(pointMemberships))
	for pt := range pointMemberships {
		order = append(order, pt)
	}
	sort.Ints(order)
	for _, pt := range order {
		if !res.Core[pt] {
			continue
		}
		for _, m := range pointMemberships[pt] {
			if m.LocalID < 0 {
				continue
			}
			root := uf.find(clusterKey(m.Partition, m.LocalID))
			if root == "" {
				continue
			}
			if _, ok := repID[root]; !ok {
				repID[root] = len(repID)
			}
			res.Labels[pt] = repID[root]
			break
		}
	}
	// Border points: join the smallest-id cluster among their memberships.
	for _, pt := range order {
		if res.Core[pt] || res.Labels[pt] != Noise {
			continue
		}
		best := -1
		for _, m := range pointMemberships[pt] {
			if m.LocalID < 0 {
				continue
			}
			root := uf.find(clusterKey(m.Partition, m.LocalID))
			if root == "" {
				continue
			}
			if id, ok := repID[root]; ok && (best == -1 || id < best) {
				best = id
			}
		}
		if best >= 0 {
			res.Labels[pt] = best
		}
	}
	res.NumClusters = len(repID)
	return res, nil
}

func pointKey(i int) string { return fmt.Sprintf("p%09d", i) }

func clusterKey(partition, local int) string {
	return fmt.Sprintf("c%04d:%06d", partition, local)
}

// buildPartitions tiles the bounding box into ~n cells and assigns each
// point to every cell whose eps-expanded window contains it.
func buildPartitions(pts []geo.Point, eps float64, n int) []partitionTask {
	bounds := boundsOf(pts)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	dLat := (bounds.MaxLat - bounds.MinLat) / float64(rows)
	dLon := (bounds.MaxLon - bounds.MinLon) / float64(cols)
	tasks := make([]partitionTask, 0, rows*cols)
	windows := make([]geo.Rect, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			inner := geo.Rect{
				MinLat: bounds.MinLat + float64(r)*dLat,
				MaxLat: bounds.MinLat + float64(r+1)*dLat,
				MinLon: bounds.MinLon + float64(c)*dLon,
				MaxLon: bounds.MinLon + float64(c+1)*dLon,
			}
			tasks = append(tasks, partitionTask{id: len(tasks), inner: inner})
			windows = append(windows, inner.Expand(eps))
		}
	}
	for i, p := range pts {
		for t := range tasks {
			if windows[t].Contains(p) {
				tasks[t].indices = append(tasks[t].indices, i)
			}
		}
	}
	// Drop empty partitions (no map task needed).
	out := tasks[:0]
	for _, t := range tasks {
		if len(t.indices) > 0 {
			out = append(out, t)
		}
	}
	return out
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// unionFind is a string-keyed disjoint-set forest with path compression.
type unionFind struct {
	parent map[string]string
}

func newUnionFind() *unionFind {
	return &unionFind{parent: map[string]string{}}
}

func (u *unionFind) add(k string) {
	if _, ok := u.parent[k]; !ok {
		u.parent[k] = k
	}
}

func (u *unionFind) find(k string) string {
	p, ok := u.parent[k]
	if !ok {
		return ""
	}
	if p != k {
		root := u.find(p)
		u.parent[k] = root
		return root
	}
	return k
}

func (u *unionFind) union(a, b string) {
	u.add(a)
	u.add(b)
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		// Deterministic: smaller string becomes the root.
		if ra < rb {
			u.parent[rb] = ra
		} else {
			u.parent[ra] = rb
		}
	}
}
