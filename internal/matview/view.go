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

// HotInView is the incrementally maintained trending aggregate: per-POI
// visit counts and grade sums, partitioned into fixed-width time buckets.
// Apply folds stored visits in as they commit; TopK answers a trending
// window by summing the buckets it covers. Buckets older than the horizon
// (measured from the newest applied visit) are expired lazily on write.
//
// Every tracked POI has a dense slot and every bucket stores only its
// non-zero counters, so memory is proportional to the counters retained —
// never to buckets × catalog size — and a read sums into one slot-indexed
// slice instead of a map.
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
	}, nil
}

// HorizonMillis returns the retention horizon; the query engine clamps
// oversized trending windows to it.
func (v *HotInView) HorizonMillis() int64 { return v.horizonMillis }

// floorBucket rounds t down to its bucket's start (correct for negative
// timestamps too).
func (v *HotInView) floorBucket(t int64) int64 {
	q := t / v.bucketMillis
	if t%v.bucketMillis < 0 {
		q--
	}
	return q * v.bucketMillis
}

// Apply folds one committed visit batch into the view: O(1) counter deltas
// per visit plus an expiry sweep when the floor advances — no recompute ever
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
	)
	for i := range visits {
		vis := &visits[i]
		if !v.applied || vis.Time > v.high {
			v.high = vis.Time
			v.applied = true
		}
		cutoff := v.high - v.horizonMillis
		bs := v.floorBucket(vis.Time)
		if bs+v.bucketMillis <= cutoff {
			continue // entirely behind the horizon; never readable
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
		p, counted := b.pos[s]
		if !counted {
			p = int32(len(b.entries))
			b.pos[s] = p
			b.entries = append(b.entries, counter{slot: s})
			v.slots[s].refs++
		}
		c := &b.entries[p]
		c.visits++
		c.gradeUnits += model.GradeUnits(vis.Grade)
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
// only they referenced and raises the coverage floor. Called with mu held,
// after at least one visit was applied.
//
// A bucket is expirable iff its end is at or behind the cutoff high−horizon;
// bucket bounds are multiples of the width, so that is iff its start is
// below floorBucket(cutoff). The previous sweep removed every bucket below
// the floor it computed (v.low), and Apply has since refused every visit
// whose bucket ends at or behind a cutoff that only grows — so no bucket
// below v.low exists, and until the floor rises above v.low there is nothing
// to sweep.
func (v *HotInView) expireLocked() {
	floor := v.floorBucket(v.high - v.horizonMillis)
	if floor <= v.low {
		return
	}
	v.low = floor
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

// selects reports whether poi passes the spec's spatial and keyword
// predicates.
func (spec *TopKSpec) selects(poi *model.POI) bool {
	if spec.BBox != nil && !spec.BBox.Contains(poi.Point()) {
		return false
	}
	return spec.Keyword == "" || slices.Contains(poi.Keywords, spec.Keyword)
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

// TopKFrom answers a trending window from the retained buckets: sum the
// per-POI counters of every bucket the window touches, keeping only POIs
// that pass the spatial and keyword predicates, and rank by visit volume
// (POI id ascending as the tiebreak — the same total order as the
// personalized hotness ranking). The second result is the candidate count
// before the limit, which the caller feeds to the latency cost model. The
// third is the window start actually served: FromMillis, raised to the
// coverage floor when the window reaches behind it and capped at ToMillis —
// read under the same lock hold as the buckets, so an expiry between a
// caller's Floor() and its read cannot make the two disagree. Raising the
// start to the floor never changes the aggregates: nothing is retained
// below it.
//
// The predicates are evaluated once per tracked POI, before any sum; the
// sums go into one slice indexed by slot; the limit is a bounded selection
// over 32-byte candidates, and metadata is copied only for the POIs that
// make it. Cost is one pass over the slots plus the counters in the
// window's buckets plus candidates × log(limit), independent of total
// history; it allocates four slices whatever the window.
func (v *HotInView) TopKFrom(spec TopKSpec) ([]Agg, int, int64) {
	type sum struct {
		visits     int64
		gradeUnits int64
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	served := min(max(spec.FromMillis, v.low), spec.ToMillis)
	if served >= spec.ToMillis || len(v.buckets) == 0 {
		return nil, 0, served
	}

	// 1. Predicates, once per slot and before any sum: acc[slot] is where
	// the slot's counters accumulate — its own element of sums if the POI is
	// selected, the shared discard element at the end if not. (A free slot
	// is in no bucket; it is sent there too.) The summing loop then has no
	// branch that depends on the data.
	n := len(v.slots)
	acc := make([]int32, n)
	for i := range v.slots {
		acc[i] = int32(n)
		if sl := &v.slots[i]; sl.refs > 0 && spec.selects(&sl.poi) {
			acc[i] = int32(i)
		}
	}

	// 2–3. Sum the window's buckets into the slot-indexed scratch.
	sums := make([]sum, n+1)
	add := func(b *bucket) {
		for i := range b.entries {
			c := &b.entries[i]
			s := &sums[acc[c.slot]]
			s.visits += c.visits
			s.gradeUnits += c.gradeUnits
		}
	}
	from, width := v.floorBucket(served), uint64(v.bucketMillis)
	// Step through the window's bucket starts unless there are fewer
	// buckets than steps (unsigned: a window reaching to the far future
	// must not overflow).
	if steps := (uint64(spec.ToMillis)-uint64(from)-1)/width + 1; steps <= uint64(len(v.buckets)) {
		for i := int64(0); i < int64(steps); i++ {
			if b := v.buckets[from+i*v.bucketMillis]; b != nil {
				add(b)
			}
		}
	} else {
		for bs, b := range v.buckets {
			if bs >= from && bs < spec.ToMillis {
				add(b)
			}
		}
	}

	// 4. Rank: keep the limit best candidates in a heap with the worst of
	// them on top, sort those, and copy metadata for them alone.
	sums = sums[:n]
	candidates := 0
	for i := range sums {
		if sums[i].visits > 0 {
			candidates++
		}
	}
	keep := candidates
	if spec.Limit > 0 && spec.Limit < keep {
		keep = spec.Limit
	}
	ranked := make([]candidate, 0, keep)
	for i := range sums {
		s := &sums[i]
		if s.visits == 0 {
			continue
		}
		c := candidate{visits: s.visits, id: v.slots[i].poi.ID, gradeUnits: s.gradeUnits, slot: int32(i)}
		switch {
		case len(ranked) < keep:
			ranked = append(ranked, c)
			if len(ranked) == keep && keep < candidates {
				for j := keep/2 - 1; j >= 0; j-- {
					siftDown(ranked, j)
				}
			}
		case c.compare(ranked[0]) < 0:
			ranked[0] = c
			siftDown(ranked, 0)
		}
	}
	slices.SortFunc(ranked, candidate.compare)
	aggs := make([]Agg, len(ranked))
	for i := range ranked {
		c := &ranked[i]
		aggs[i] = Agg{POI: v.slots[c.slot].poi, Visits: int(c.visits), GradeUnits: c.gradeUnits}
	}
	return aggs, candidates, served
}
