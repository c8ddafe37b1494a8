// Package matview maintains incrementally updated materialized views over
// the check-in stream. It replaces two per-request recomputations with
// delta-maintained state:
//
//   - HotInView folds every stored visit into per-POI, per-time-bucket
//     counters at ingest, so a global trending query reads the buckets
//     covering its window instead of rescanning visit history — the
//     aggregation cost the paper's offline MapReduce hotness pipeline
//     amortizes, paid here one delta at a time.
//   - ResultCache memoizes personalized query state keyed by the
//     normalized query spec; a check-in by a friend in the cached friend
//     set is folded into the entry, which is dropped only when the fold
//     cannot be exact.
//
// Both structures are fed from the VisitsRepo store hooks, so API ingest
// and collector passes alike keep them current. Neither spawns
// goroutines; maintenance is amortized over writes (lazy bucket expiry,
// eviction on insert).
package matview

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// Default view geometry used when an option is zero.
const (
	// DefaultBucketMillis is one hour — fine enough that the API's
	// hour-granular trending windows quantize losslessly.
	DefaultBucketMillis = int64(60 * 60 * 1000)
	// DefaultHorizonMillis is 14 days — comfortably past the API's default
	// 24-hour trending window.
	DefaultHorizonMillis = int64(14 * 24 * 60 * 60 * 1000)
)

// ViewOptions sizes a HotInView.
type ViewOptions struct {
	// BucketMillis is the width of one aggregation bucket (0 = 1h).
	BucketMillis int64
	// HorizonMillis is how far behind the newest applied visit buckets are
	// retained; it also bounds the windows the view can answer (0 = 14d).
	HorizonMillis int64
}

// slot is one tracked POI. A POI holds its slot for as long as any live
// bucket has a counter for it; refs counts those buckets.
type slot struct {
	poi  model.POI
	refs int32
}

// counter is one POI's aggregate inside one bucket, addressed by slot.
type counter struct {
	gradeUnits int64
	visits     int64
	slot       int32
}

// bucket holds one time bucket's non-zero counters contiguously, in the
// order their POIs first appeared in it; pos finds a slot's counter for
// Apply. Reads stream entries and never touch pos.
type bucket struct {
	entries []counter
	pos     map[int32]int32
}

// add folds visits and grade units into slot s's counter, appending the
// counter the first time s is seen; it reports whether it appended.
func (b *bucket) add(s int32, visits, gradeUnits int64) bool {
	p, counted := b.pos[s]
	if !counted {
		p = int32(len(b.entries))
		b.pos[s] = p
		b.entries = append(b.entries, counter{slot: s})
	}
	c := &b.entries[p]
	c.visits += visits
	c.gradeUnits += gradeUnits
	return !counted
}

// maxWindows is how many windows a view keeps; the least recently read one
// makes room for a new one.
const maxWindows = 8

// window is one bucket range's per-slot totals, shaped like a bucket: the
// sum of the counters of every bucket whose start lies in [from, last].
// Apply folds each visit into the windows covering its bucket as well, so a
// window stays equal to that sum without being rebuilt. Expiry drops a
// window once its first bucket falls behind the floor, so a window covers
// live buckets only and names only slots in use.
type window struct {
	bucket
	from, last int64        // first and last bucket start covered
	read       atomic.Int64 // the view's read clock at the last read
}

// HotInView is the incrementally maintained trending aggregate: per-POI
// visit counts and grade sums, partitioned into fixed-width time buckets.
// Apply folds stored visits in as they commit; TopK answers a trending
// window from the per-POI totals of the buckets it covers, which the view
// keeps for the windows recently read and folds every later visit into.
// Buckets older than the horizon (measured from the newest applied visit)
// are expired lazily on write.
//
// Every tracked POI has a dense slot and every bucket stores only its
// non-zero counters, so memory is proportional to the counters retained —
// never to buckets × catalog size.
//
// Attach the view before the first write (or warm it with a scan). Floor
// is where the retained range starts; TopKFrom reports the part of a window
// reaching behind it that was actually served.
type HotInView struct {
	bucketMillis  int64
	horizonMillis int64

	mu      sync.RWMutex
	buckets map[int64]*bucket // bucket start → its counters
	slotOf  map[int64]int32   // POI id → slot, for POIs with refs > 0
	slots   []slot            // metadata and refcount per slot; zero when free
	free    []int32           // slots whose last referencing bucket expired
	high    int64             // newest applied visit timestamp
	low     int64             // inclusive coverage floor (rises on expiry)
	applied bool              // at least one visit applied (high meaningful)
	windows []*window         // at most maxWindows ranges recently read
	reads   atomic.Int64      // read clock stamped on a window when it is read
}

// NewHotInView builds an empty view. A fresh view has no floor — it
// legitimately knows the stream contained nothing yet — so it must be
// attached to the Visits repository's store hook before writes begin.
func NewHotInView(opts ViewOptions) (*HotInView, error) {
	if opts.BucketMillis < 0 || opts.HorizonMillis < 0 {
		return nil, fmt.Errorf("matview: negative bucket or horizon")
	}
	if opts.BucketMillis == 0 {
		opts.BucketMillis = DefaultBucketMillis
	}
	if opts.HorizonMillis == 0 {
		opts.HorizonMillis = DefaultHorizonMillis
	}
	if opts.HorizonMillis < opts.BucketMillis {
		return nil, fmt.Errorf("matview: horizon %dms shorter than bucket %dms",
			opts.HorizonMillis, opts.BucketMillis)
	}
	return &HotInView{
		bucketMillis:  opts.BucketMillis,
		horizonMillis: opts.HorizonMillis,
		buckets:       map[int64]*bucket{},
		slotOf:        map[int64]int32{},
		low:           math.MinInt64,
		windows:       make([]*window, 0, maxWindows),
	}, nil
}

// HorizonMillis returns the retention horizon; the query engine clamps
// oversized trending windows to it.
func (v *HotInView) HorizonMillis() int64 { return v.horizonMillis }

// floorBucket rounds t down to its bucket's start (correct for negative
// timestamps too). The partial bucket just above math.MinInt64, whose start
// lies below it, starts at math.MinInt64: there the product wraps to a
// positive value above t.
func (v *HotInView) floorBucket(t int64) int64 {
	q := t / v.bucketMillis
	if t%v.bucketMillis < 0 {
		q--
	}
	if start := q * v.bucketMillis; start <= t {
		return start
	}
	return math.MinInt64
}

// horizonFloor is the start of the oldest bucket the horizon keeps: that of
// the cutoff high−horizon, saturated at math.MinInt64. A bucket starting
// below it ends at or behind the cutoff, since bucket bounds are multiples
// of the width. Called with mu held, after at least one visit was applied.
func (v *HotInView) horizonFloor() int64 {
	if v.high < math.MinInt64+v.horizonMillis {
		return math.MinInt64
	}
	return v.floorBucket(v.high - v.horizonMillis)
}

// Apply folds one committed visit batch into the view: O(1) counter deltas
// per visit — into its bucket and into each held window covering that
// bucket — plus an expiry sweep when the floor advances; no recompute ever
// rescans history. Visits older than the horizon (relative to the newest
// timestamp seen) are skipped; they fall outside every answerable window.
func (v *HotInView) Apply(visits []model.Visit) {
	if len(visits) == 0 {
		return
	}
	v.mu.Lock()
	var (
		b      *bucket // bucket of the previous visit: batches cluster in time
		bStart int64
		floor  int64 // horizonFloor, recomputed when high moves
	)
	if v.applied {
		floor = v.horizonFloor()
	}
	for i := range visits {
		vis := &visits[i]
		if !v.applied || vis.Time > v.high {
			v.high = vis.Time
			v.applied = true
			floor = v.horizonFloor()
		}
		bs := v.floorBucket(vis.Time)
		// The bucket is entirely behind the horizon and never readable.
		if bs < floor {
			continue
		}
		if b == nil || bs != bStart {
			if b = v.buckets[bs]; b == nil {
				b = &bucket{pos: map[int32]int32{}}
				v.buckets[bs] = b
			}
			bStart = bs
		}
		s, tracked := v.slotOf[vis.POI.ID]
		if !tracked {
			s = v.takeSlot(vis.POI)
		}
		units := model.GradeUnits(vis.Grade)
		if b.add(s, 1, units) {
			v.slots[s].refs++
		}
		for _, w := range v.windows {
			if bs >= w.from && bs <= w.last {
				w.add(s, 1, units)
			}
		}
	}
	v.expireLocked()
	buckets, pois := int64(len(v.buckets)), int64(len(v.slotOf))
	v.mu.Unlock()
	mApplies.Add(int64(len(visits)))
	mBuckets.Set(buckets)
	mViewPOIs.Set(pois)
}

// takeSlot gives an untracked POI a slot, reusing a freed one when there is
// one. The metadata stored here is what reads see until the slot is freed:
// the first visit's wins for as long as the POI stays referenced. Called
// with mu held; the caller adds the first reference.
func (v *HotInView) takeSlot(poi model.POI) int32 {
	var s int32
	if n := len(v.free); n > 0 {
		s = v.free[n-1]
		v.free = v.free[:n-1]
		v.slots[s].poi = poi
	} else {
		s = int32(len(v.slots))
		v.slots = append(v.slots, slot{poi: poi})
	}
	v.slotOf[poi.ID] = s
	return s
}

// expireLocked drops buckets wholly behind the horizon, releases the slots
// only they referenced, raises the coverage floor and drops the windows
// starting below it. Called with mu held, after at least one visit was
// applied.
//
// A bucket is expirable iff its end is at or behind the cutoff high−horizon;
// bucket bounds are multiples of the width, so that is iff its start is
// below horizonFloor. The previous sweep removed every bucket below
// the floor it computed (v.low), and Apply has since refused every visit
// whose bucket starts below a floor that only grows — so no bucket
// below v.low exists, and until the floor rises above v.low there is nothing
// to sweep.
func (v *HotInView) expireLocked() {
	floor := v.horizonFloor()
	if floor <= v.low {
		return
	}
	v.low = floor
	v.windows = slices.DeleteFunc(v.windows, func(w *window) bool { return w.from < floor })
	var expired int64
	for bs, b := range v.buckets {
		if bs >= floor {
			continue
		}
		for i := range b.entries {
			s := b.entries[i].slot
			sl := &v.slots[s]
			if sl.refs--; sl.refs == 0 {
				delete(v.slotOf, sl.poi.ID)
				*sl = slot{} // release the metadata
				v.free = append(v.free, s)
			}
		}
		delete(v.buckets, bs)
		expired++
	}
	if expired > 0 {
		mExpired.Add(expired)
	}
}

// Floor returns the inclusive start of the range the retained buckets fully
// represent: the horizon cutoff behind the newest applied visit, rounded
// down to a bucket (math.MinInt64 until the first visit is applied). Visits
// before it were expired or never folded in, so a window reaching behind it
// can only be answered from the floor on.
func (v *HotInView) Floor() int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.low
}

// TopKSpec is one trending read against the view.
type TopKSpec struct {
	// BBox, when set, keeps only POIs inside it.
	BBox *geo.Rect
	// Keyword, when non-empty, keeps only POIs carrying it.
	Keyword string
	// FromMillis/ToMillis bound the window; bounds quantize outward to
	// bucket boundaries (from rounds down, to rounds up).
	FromMillis int64
	ToMillis   int64
	// Limit caps the ranking (0 = unlimited).
	Limit int
}

// Agg is one POI's aggregate over a queried window; GradeUnits sums its
// visits' grades in model.GradeUnits.
type Agg struct {
	POI        model.POI
	Visits     int
	GradeUnits int64
}

// candidate is what the ranking sorts: a selected POI's window totals and
// its slot, 32 bytes, with no metadata attached.
type candidate struct {
	visits     int64
	id         int64
	gradeUnits int64
	slot       int32
}

// compare orders candidates by visits descending, then POI id ascending.
func (c candidate) compare(o candidate) int {
	if c.visits != o.visits {
		return cmp.Compare(o.visits, c.visits)
	}
	return cmp.Compare(c.id, o.id)
}

// siftDown restores, below index i, the heap order in which every parent
// ranks after its children (the root is the worst candidate kept).
func siftDown(h []candidate, i int) {
	for {
		worst := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h) && h[child].compare(h[worst]) > 0 {
				worst = child
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// TopK answers a trending window from the retained buckets; see TopKFrom,
// whose first two results it returns.
func (v *HotInView) TopK(spec TopKSpec) ([]Agg, int) {
	aggs, candidates, _ := v.TopKFrom(spec)
	return aggs, candidates
}

// TopKFrom answers a trending window from the retained buckets: the
// per-POI totals over every bucket the window touches, kept to POIs that
// pass the spatial and keyword predicates and ranked by visit volume (POI
// id ascending as the tiebreak — the same total order as the personalized
// hotness ranking). The second result is the candidate count before the
// limit, which the caller feeds to the latency cost model. The third is the
// window start actually served: FromMillis, raised to the coverage floor
// when the window reaches behind it and capped at ToMillis — read under the
// same lock hold as the totals, so an expiry between a caller's Floor() and
// its read cannot make the two disagree. Raising the start to the floor
// never changes the aggregates: nothing is retained below it.
//
// The totals come from the window held for the read's bucket range. A read
// whose range is held (a hit) runs under the read lock: it evaluates the
// predicates once per window entry, keeps the limit best in a bounded heap
// of 32-byte candidates and copies metadata for those alone, so it costs
// the window's entries plus candidates × log(limit) and allocates two
// slices, whatever the window's width. A read whose range is not held (a
// miss) takes the write lock and first builds the window by summing the
// range's buckets, evicting the least recently read window beyond
// maxWindows.
func (v *HotInView) TopKFrom(spec TopKSpec) ([]Agg, int, int64) {
	v.mu.RLock()
	aggs, candidates, served, done := v.readLocked(&spec, false)
	v.mu.RUnlock()
	if done {
		return aggs, candidates, served
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	aggs, candidates, served, _ = v.readLocked(&spec, true)
	return aggs, candidates, served
}

// readLocked is one read under mu. With build false mu may be held for
// reading, and done is false when the read's range is not held; with build
// true mu is held for writing and a range not held is built.
func (v *HotInView) readLocked(spec *TopKSpec, build bool) (aggs []Agg, candidates int, served int64, done bool) {
	served = min(max(spec.FromMillis, v.low), spec.ToMillis)
	if served >= spec.ToMillis || len(v.buckets) == 0 {
		return nil, 0, served, true
	}
	from, last := v.floorBucket(served), v.floorBucket(spec.ToMillis-1)
	var w *window
	for _, held := range v.windows {
		if held.from == from && held.last == last {
			w = held
			break
		}
	}
	if w == nil {
		if !build {
			return nil, 0, served, false
		}
		w = v.buildWindow(from, last)
	}
	w.read.Store(v.reads.Add(1))
	aggs, candidates = v.rank(w, spec)
	return aggs, candidates, served, true
}

// buildWindow sums the buckets starting in [from, last] into a new window
// and holds it, in place of the least recently read one when maxWindows
// are held. Called with mu held for writing.
func (v *HotInView) buildWindow(from, last int64) *window {
	sums := make([]counter, len(v.slots))
	add := func(b *bucket) {
		for i := range b.entries {
			c := &b.entries[i]
			s := &sums[c.slot]
			s.visits += c.visits
			s.gradeUnits += c.gradeUnits
		}
	}
	// Step through the range's bucket starts unless there are fewer buckets
	// than steps (unsigned: a window reaching to the far future must not
	// overflow).
	if steps := (uint64(last)-uint64(from))/uint64(v.bucketMillis) + 1; steps <= uint64(len(v.buckets)) {
		for i := int64(0); i < int64(steps); i++ {
			if b := v.buckets[from+i*v.bucketMillis]; b != nil {
				add(b)
			}
		}
	} else {
		for bs, b := range v.buckets {
			if bs >= from && bs <= last {
				add(b)
			}
		}
	}
	n := 0
	for i := range sums {
		if sums[i].visits > 0 {
			n++
		}
	}
	w := &window{bucket: bucket{entries: make([]counter, 0, n), pos: make(map[int32]int32, n)}, from: from, last: last}
	for i := range sums {
		if c := sums[i]; c.visits > 0 {
			c.slot = int32(i)
			w.pos[c.slot] = int32(len(w.entries))
			w.entries = append(w.entries, c)
		}
	}
	if len(v.windows) < maxWindows {
		v.windows = append(v.windows, w)
	} else {
		oldest := 0
		for i, held := range v.windows {
			if held.read.Load() < v.windows[oldest].read.Load() {
				oldest = i
			}
		}
		v.windows[oldest] = w
	}
	return w
}

// rank answers spec from window w: the predicates once per entry, a bounded
// heap with the worst kept candidate on top, a sort of the kept ones, and
// metadata copied for them alone. Called with mu held.
func (v *HotInView) rank(w *window, spec *TopKSpec) ([]Agg, int) {
	keep := len(w.entries)
	if spec.Limit > 0 && spec.Limit < keep {
		keep = spec.Limit
	}
	ranked := make([]candidate, 0, keep)
	candidates := 0
	box, keyword := spec.BBox, spec.Keyword
	for i := range w.entries {
		c := &w.entries[i]
		poi := &v.slots[c.slot].poi
		// The predicates are written out here: a method holding them is not
		// inlined, and the call was a tenth of a hit's time.
		if box != nil && !box.Contains(poi.Point()) || keyword != "" && !slices.Contains(poi.Keywords, keyword) {
			continue
		}
		candidates++
		full := len(ranked) == keep
		if full {
			if candidates == keep+1 { // the first one not kept outright
				for j := keep/2 - 1; j >= 0; j-- {
					siftDown(ranked, j)
				}
			}
			if c.visits < ranked[0].visits {
				continue // ranks after every kept candidate
			}
		}
		cand := candidate{visits: c.visits, id: poi.ID, gradeUnits: c.gradeUnits, slot: c.slot}
		switch {
		case !full:
			ranked = append(ranked, cand)
		case cand.compare(ranked[0]) < 0:
			ranked[0] = cand
			siftDown(ranked, 0)
		}
	}
	slices.SortFunc(ranked, candidate.compare)
	aggs := make([]Agg, len(ranked))
	for i := range ranked {
		c := &ranked[i]
		aggs[i] = Agg{POI: v.slots[c.slot].poi, Visits: int(c.visits), GradeUnits: c.gradeUnits}
	}
	return aggs, candidates
}
