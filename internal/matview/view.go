// Package matview maintains incrementally updated materialized views over
// the check-in stream. It replaces two per-request recomputations with
// delta-maintained state:
//
//   - HotInView folds every stored visit into per-POI, per-time-bucket
//     counters at ingest, so a global trending query reads the buckets
//     covering its window instead of rescanning visit history — the
//     aggregation cost the paper's offline MapReduce hotness pipeline
//     amortizes, paid here one delta at a time.
//   - ResultCache memoizes personalized top-k results keyed by the
//     normalized query spec, invalidated when any friend in the cached
//     friend set checks in again.
//
// Both structures are fed from the VisitsRepo post-commit hook, so API
// ingest and collector passes alike keep them current. Neither spawns
// goroutines; maintenance is amortized over writes (lazy bucket expiry,
// eviction on insert).
package matview

import (
	"fmt"
	"math"
	"sort"
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

// poiCounter is one POI's aggregate inside one bucket.
type poiCounter struct {
	visits   int
	gradeSum float64
}

// HotInView is the incrementally maintained trending aggregate: per-POI
// visit counts and grade sums, partitioned into fixed-width time buckets.
// Apply folds stored visits in as they commit; TopK answers a trending
// window by summing the buckets it covers. Buckets older than the horizon
// (measured from the newest applied visit) are expired lazily on write.
//
// Attach the view before the first write (or warm it with a scan). Floor
// is where the retained range starts; the query engine clamps a window
// reaching behind it.
type HotInView struct {
	bucketMillis  int64
	horizonMillis int64

	mu      sync.RWMutex
	buckets map[int64]map[int64]*poiCounter // bucket start → POI id → counter
	pois    map[int64]model.POI             // POI metadata for predicate filtering
	poiRef  map[int64]int                   // live-bucket refcount per POI
	high    int64                           // newest applied visit timestamp
	low     int64                           // inclusive coverage floor (rises on expiry)
	applied bool                            // at least one visit applied (high/low meaningful)
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
		buckets:       map[int64]map[int64]*poiCounter{},
		pois:          map[int64]model.POI{},
		poiRef:        map[int64]int{},
		low:           math.MinInt64,
	}, nil
}

// HorizonMillis returns the retention horizon; the query engine clamps
// oversized trending windows to it.
func (v *HotInView) HorizonMillis() int64 { return v.horizonMillis }

// BucketMillis returns the bucket width (window bounds quantize to it).
func (v *HotInView) BucketMillis() int64 { return v.bucketMillis }

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
// per visit plus an amortized expiry sweep — no recompute ever rescans
// history. Visits older than the horizon (relative to the newest timestamp
// seen) are skipped; they fall outside every answerable window.
func (v *HotInView) Apply(visits []model.Visit) {
	if len(visits) == 0 {
		return
	}
	v.mu.Lock()
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
		b := v.buckets[bs]
		if b == nil {
			b = map[int64]*poiCounter{}
			v.buckets[bs] = b
		}
		c := b[vis.POI.ID]
		if c == nil {
			c = &poiCounter{}
			b[vis.POI.ID] = c
			if v.poiRef[vis.POI.ID] == 0 {
				v.pois[vis.POI.ID] = vis.POI
			}
			v.poiRef[vis.POI.ID]++
		}
		c.visits++
		c.gradeSum += vis.Grade
	}
	v.expireLocked()
	buckets, pois := int64(len(v.buckets)), int64(len(v.pois))
	v.mu.Unlock()
	mApplies.Add(int64(len(visits)))
	mBuckets.Set(buckets)
	mViewPOIs.Set(pois)
}

// expireLocked drops buckets wholly behind the horizon and raises the
// coverage floor. Called with mu held.
func (v *HotInView) expireLocked() {
	if !v.applied {
		return
	}
	cutoff := v.high - v.horizonMillis
	floor := v.floorBucket(cutoff)
	var expired int64
	for bs, b := range v.buckets {
		if bs+v.bucketMillis <= cutoff {
			for id := range b {
				v.poiRef[id]--
				if v.poiRef[id] == 0 {
					delete(v.poiRef, id)
					delete(v.pois, id)
				}
			}
			delete(v.buckets, bs)
			expired++
		}
	}
	if expired > 0 {
		mExpired.Add(expired)
	}
	// Every bucket at or after floor survives, so coverage starts there
	// regardless of whether this sweep deleted anything.
	if floor > v.low {
		v.low = floor
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

// Agg is one POI's aggregate over a queried window.
type Agg struct {
	POI      model.POI
	Visits   int
	GradeSum float64
}

// TopK answers a trending window from the retained buckets: sum the per-POI
// counters of every bucket the window touches, filter by the spatial and
// keyword predicates, and rank by visit volume (POI id ascending as the
// tiebreak — the same total order as the personalized hotness ranking).
// The second result is the candidate count before the limit, which the
// caller feeds to the latency cost model. Cost is proportional to
// buckets-in-window × POIs-per-bucket, independent of total history.
func (v *HotInView) TopK(spec TopKSpec) ([]Agg, int) {
	from := v.floorBucket(spec.FromMillis)
	v.mu.RLock()
	sums := map[int64]*poiCounter{}
	for bs, b := range v.buckets {
		if bs < from || bs >= spec.ToMillis {
			continue
		}
		for id, c := range b {
			s := sums[id]
			if s == nil {
				s = &poiCounter{}
				sums[id] = s
			}
			s.visits += c.visits
			s.gradeSum += c.gradeSum
		}
	}
	aggs := make([]Agg, 0, len(sums))
	for id, s := range sums {
		poi := v.pois[id]
		if spec.BBox != nil && !spec.BBox.Contains(poi.Point()) {
			continue
		}
		if spec.Keyword != "" {
			found := false
			for _, k := range poi.Keywords {
				if k == spec.Keyword {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		aggs = append(aggs, Agg{POI: poi, Visits: s.visits, GradeSum: s.gradeSum})
	}
	v.mu.RUnlock()
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].Visits != aggs[j].Visits {
			return aggs[i].Visits > aggs[j].Visits
		}
		return aggs[i].POI.ID < aggs[j].POI.ID
	})
	candidates := len(aggs)
	if spec.Limit > 0 && len(aggs) > spec.Limit {
		aggs = aggs[:spec.Limit]
	}
	return aggs, candidates
}

// Buckets returns the live bucket count (runbook visibility).
func (v *HotInView) Buckets() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.buckets)
}
