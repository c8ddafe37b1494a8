package geo

import (
	"fmt"
	"math"
)

// RTree is an in-memory R-tree over rectangles with opaque integer ids. Two
// packages use it: the pub/sub registry indexes standing-query regions and
// stabs them with each pushed check-in's point, and the trajectory matcher
// indexes POI points to find a stay point's nearest POI.
//
// The implementation uses quadratic-split insertion (Guttman 1984). RTree is
// not safe for concurrent mutation: the registry inserts and deletes under
// its write lock and searches under its read lock (Search does not mutate),
// and the matcher builds a private tree per call.
type RTree struct {
	root    *rtreeNode
	minFill int
	maxFill int
	size    int
	// pathBuf holds the root-to-leaf path of the last chooseLeaf call so
	// that splits can propagate upward without parent pointers.
	pathBuf []*rtreeNode
}

type rtreeNode struct {
	leaf     bool
	rect     Rect
	entries  []rtreeEntry
	children []*rtreeNode
}

type rtreeEntry struct {
	rect Rect
	id   int64
}

// NewRTree creates an empty R-tree. maxFill is the fan-out (entries per
// node); values in [4, 64] are sensible, the store uses 16.
func NewRTree(maxFill int) (*RTree, error) {
	if maxFill < 4 {
		return nil, fmt.Errorf("geo: rtree maxFill must be >= 4, got %d", maxFill)
	}
	return &RTree{
		root:    &rtreeNode{leaf: true},
		minFill: maxFill * 2 / 5, // 40% as in Guttman's recommendation
		maxFill: maxFill,
	}, nil
}

// Insert adds a rectangle with the given id. Point data is inserted as a
// degenerate rectangle.
func (t *RTree) Insert(id int64, r Rect) {
	e := rtreeEntry{rect: r, id: id}
	leaf := t.chooseLeaf(t.root, r)
	leaf.entries = append(leaf.entries, e)
	leaf.rect = extendRect(leaf)
	t.size++
	t.splitUpwards(leaf)
}

// InsertPoint adds a point with the given id.
func (t *RTree) InsertPoint(id int64, p Point) {
	t.Insert(id, Rect{MinLat: p.Lat, MaxLat: p.Lat, MinLon: p.Lon, MaxLon: p.Lon})
}

// chooseLeaf descends to the leaf whose enlargement to cover r is minimal.
func (t *RTree) chooseLeaf(n *rtreeNode, r Rect) *rtreeNode {
	t.pathBuf = t.pathBuf[:0]
	for !n.leaf {
		t.pathBuf = append(t.pathBuf, n)
		best, bestCost, bestArea := -1, math.Inf(1), math.Inf(1)
		for i, c := range n.children {
			area := c.rect.Area()
			cost := c.rect.Union(r).Area() - area
			if cost < bestCost || (cost == bestCost && area < bestArea) {
				best, bestCost, bestArea = i, cost, area
			}
		}
		n = n.children[best]
	}
	t.pathBuf = append(t.pathBuf, n)
	return n
}

// splitUpwards re-validates node capacities along the recorded path,
// splitting overflowing nodes and growing the tree at the root if needed.
func (t *RTree) splitUpwards(leaf *rtreeNode) {
	// Walk the recorded path bottom-up.
	for i := len(t.pathBuf) - 1; i >= 0; i-- {
		n := t.pathBuf[i]
		over := len(n.entries) > t.maxFill || len(n.children) > t.maxFill
		if !over {
			n.rect = extendRect(n)
			continue
		}
		left, right := t.split(n)
		if i == 0 {
			// Root split: grow the tree.
			t.root = &rtreeNode{
				leaf:     false,
				children: []*rtreeNode{left, right},
			}
			t.root.rect = left.rect.Union(right.rect)
			return
		}
		parent := t.pathBuf[i-1]
		// Replace n with left, append right.
		for j, c := range parent.children {
			if c == n {
				parent.children[j] = left
				break
			}
		}
		parent.children = append(parent.children, right)
		parent.rect = extendRect(parent)
	}
}

// split performs Guttman's quadratic split of an overflowing node, returning
// the two halves.
func (t *RTree) split(n *rtreeNode) (*rtreeNode, *rtreeNode) {
	if n.leaf {
		groups := quadraticSplitRects(entryRects(n.entries), t.minFill)
		l := &rtreeNode{leaf: true}
		r := &rtreeNode{leaf: true}
		for _, idx := range groups[0] {
			l.entries = append(l.entries, n.entries[idx])
		}
		for _, idx := range groups[1] {
			r.entries = append(r.entries, n.entries[idx])
		}
		l.rect, r.rect = extendRect(l), extendRect(r)
		return l, r
	}
	groups := quadraticSplitRects(childRects(n.children), t.minFill)
	l := &rtreeNode{}
	r := &rtreeNode{}
	for _, idx := range groups[0] {
		l.children = append(l.children, n.children[idx])
	}
	for _, idx := range groups[1] {
		r.children = append(r.children, n.children[idx])
	}
	l.rect, r.rect = extendRect(l), extendRect(r)
	return l, r
}

func entryRects(es []rtreeEntry) []Rect {
	rs := make([]Rect, len(es))
	for i, e := range es {
		rs[i] = e.rect
	}
	return rs
}

func childRects(cs []*rtreeNode) []Rect {
	rs := make([]Rect, len(cs))
	for i, c := range cs {
		rs[i] = c.rect
	}
	return rs
}

// quadraticSplitRects distributes indexes of rects into two groups using the
// quadratic seed heuristic, honoring the minimum fill.
func quadraticSplitRects(rects []Rect, minFill int) [2][]int {
	n := len(rects)
	// Pick the pair of seeds wasting the most area together.
	seedA, seedB, worst := 0, 1, math.Inf(-1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			waste := rects[i].Union(rects[j]).Area() - rects[i].Area() - rects[j].Area()
			if waste > worst {
				worst, seedA, seedB = waste, i, j
			}
		}
	}
	var groups [2][]int
	groups[0] = append(groups[0], seedA)
	groups[1] = append(groups[1], seedB)
	boxA, boxB := rects[seedA], rects[seedB]

	assigned := make([]bool, n)
	assigned[seedA], assigned[seedB] = true, true
	remaining := n - 2
	for remaining > 0 {
		// If one group must absorb all remaining entries to reach minFill,
		// assign them wholesale.
		if len(groups[0])+remaining == minFill {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groups[0] = append(groups[0], i)
					assigned[i] = true
				}
			}
			break
		}
		if len(groups[1])+remaining == minFill {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					groups[1] = append(groups[1], i)
					assigned[i] = true
				}
			}
			break
		}
		// Pick the entry with the greatest preference for one group.
		best, bestDiff := -1, math.Inf(-1)
		var bestCostA, bestCostB float64
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			costA := boxA.Union(rects[i]).Area() - boxA.Area()
			costB := boxB.Union(rects[i]).Area() - boxB.Area()
			diff := math.Abs(costA - costB)
			if diff > bestDiff {
				best, bestDiff, bestCostA, bestCostB = i, diff, costA, costB
			}
		}
		assigned[best] = true
		remaining--
		if bestCostA < bestCostB || (bestCostA == bestCostB && len(groups[0]) < len(groups[1])) {
			groups[0] = append(groups[0], best)
			boxA = boxA.Union(rects[best])
		} else {
			groups[1] = append(groups[1], best)
			boxB = boxB.Union(rects[best])
		}
	}
	return groups
}

func extendRect(n *rtreeNode) Rect {
	var r Rect
	first := true
	for _, e := range n.entries {
		if first {
			r, first = e.rect, false
		} else {
			r = r.Union(e.rect)
		}
	}
	for _, c := range n.children {
		if first {
			r, first = c.rect, false
		} else {
			r = r.Union(c.rect)
		}
	}
	return r
}

// Search appends to dst the ids of all rectangles intersecting q and
// returns the extended slice.
func (t *RTree) Search(dst []int64, q Rect) []int64 {
	if t.size == 0 {
		return dst
	}
	return searchNode(dst, t.root, q)
}

func searchNode(dst []int64, n *rtreeNode, q Rect) []int64 {
	if !n.rect.Intersects(q) && !(len(n.entries) == 0 && len(n.children) == 0) {
		return dst
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.rect.Intersects(q) {
				dst = append(dst, e.id)
			}
		}
		return dst
	}
	for _, c := range n.children {
		if c.rect.Intersects(q) {
			dst = searchNode(dst, c, q)
		}
	}
	return dst
}

// Delete removes the entry with the given id and rectangle, returning
// whether it was found. It implements Guttman's CondenseTree: underflowing
// nodes are dissolved and their surviving entries reinserted, and the tree
// height shrinks when the root is left with a single child.
func (t *RTree) Delete(id int64, r Rect) bool {
	var path []*rtreeNode
	leaf, entryIdx := t.findLeaf(t.root, id, r, &path)
	if leaf == nil {
		return false
	}
	leaf.entries = append(leaf.entries[:entryIdx], leaf.entries[entryIdx+1:]...)
	t.size--

	// Condense: walk the path bottom-up, dissolving underflowing nodes.
	var orphans []rtreeEntry
	for i := len(path) - 1; i >= 1; i-- {
		n := path[i]
		parent := path[i-1]
		under := false
		if n.leaf {
			under = len(n.entries) < t.minFill
		} else {
			under = len(n.children) < t.minFill
		}
		if under {
			for j, c := range parent.children {
				if c == n {
					parent.children = append(parent.children[:j], parent.children[j+1:]...)
					break
				}
			}
			orphans = append(orphans, collectEntries(n)...)
		} else {
			n.rect = extendRect(n)
		}
	}
	t.root.rect = extendRect(t.root)
	// Shrink the root while it is a non-leaf with one child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &rtreeNode{leaf: true}
	}
	// Reinsert orphaned entries (Insert maintains size; compensate).
	for _, e := range orphans {
		t.size--
		t.Insert(e.id, e.rect)
	}
	return true
}

// findLeaf locates the leaf holding the exact (id, rect) entry, recording
// the root-to-leaf path (inclusive of both ends) into *path.
func (t *RTree) findLeaf(n *rtreeNode, id int64, r Rect, path *[]*rtreeNode) (*rtreeNode, int) {
	*path = append(*path, n)
	if n.leaf {
		for i, e := range n.entries {
			if e.id == id && e.rect == r {
				return n, i
			}
		}
		*path = (*path)[:len(*path)-1]
		return nil, -1
	}
	for _, c := range n.children {
		if !c.rect.Intersects(r) {
			continue
		}
		if leaf, idx := t.findLeaf(c, id, r, path); leaf != nil {
			return leaf, idx
		}
	}
	*path = (*path)[:len(*path)-1]
	return nil, -1
}

// collectEntries gathers every leaf entry under n.
func collectEntries(n *rtreeNode) []rtreeEntry {
	if n.leaf {
		return append([]rtreeEntry(nil), n.entries...)
	}
	var out []rtreeEntry
	for _, c := range n.children {
		out = append(out, collectEntries(c)...)
	}
	return out
}
