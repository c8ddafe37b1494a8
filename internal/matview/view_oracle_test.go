package matview

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// viewOracle is the brute-force model the view is compared with: a flat
// list of every visit ever applied. It has no slots and no buckets — a
// visit's bucket is arithmetic on its timestamp — and decides retention at
// the time of the read: a visit is retained iff its bucket ends after
// newest − horizon.
type viewOracle struct {
	bucket, horizon int64
	visits          []model.Visit
	high            int64
	applied         bool
	// meta is the metadata a read must report per POI: that of the first
	// visit applied since the POI last had no retained visit.
	meta map[int64]model.POI
}

func (o *viewOracle) bucketStart(t int64) int64 {
	return int64(math.Floor(float64(t)/float64(o.bucket))) * o.bucket
}

func (o *viewOracle) retained(t int64) bool {
	return o.applied && o.bucketStart(t)+o.bucket > o.high-o.horizon
}

func (o *viewOracle) apply(batch []model.Visit) {
	for _, v := range batch {
		if !o.applied || v.Time > o.high {
			o.high, o.applied = v.Time, true
		}
		o.visits = append(o.visits, v)
		if _, known := o.meta[v.POI.ID]; !known && o.retained(v.Time) {
			o.meta[v.POI.ID] = v.POI
		}
	}
	// Metadata is released once nothing retained refers to the POI; the
	// view sweeps at the end of a batch, so that is when the oracle looks.
	live := map[int64]bool{}
	for _, v := range o.visits {
		if o.retained(v.Time) {
			live[v.POI.ID] = true
		}
	}
	for id := range o.meta {
		if !live[id] {
			delete(o.meta, id)
		}
	}
}

func (o *viewOracle) floor() int64 {
	if !o.applied {
		return math.MinInt64
	}
	return o.bucketStart(o.high - o.horizon)
}

func (o *viewOracle) buckets() int {
	starts := map[int64]bool{}
	for _, v := range o.visits {
		if o.retained(v.Time) {
			starts[o.bucketStart(v.Time)] = true
		}
	}
	return len(starts)
}

// topK recomputes a read: every retained visit whose bucket touches
// [from, to), grouped by POI, filtered on the POI's metadata, ranked by
// visits descending then id ascending, cut at the limit.
func (o *viewOracle) topK(spec TopKSpec) ([]Agg, int) {
	sums := map[int64]*Agg{}
	for _, v := range o.visits {
		bs := o.bucketStart(v.Time)
		if !o.retained(v.Time) || bs+o.bucket <= spec.FromMillis || bs >= spec.ToMillis || spec.ToMillis <= spec.FromMillis {
			continue
		}
		poi := o.meta[v.POI.ID]
		if spec.BBox != nil && !spec.BBox.Contains(poi.Point()) {
			continue
		}
		if spec.Keyword != "" {
			has := false
			for _, k := range poi.Keywords {
				has = has || k == spec.Keyword
			}
			if !has {
				continue
			}
		}
		a := sums[poi.ID]
		if a == nil {
			a = &Agg{POI: poi}
			sums[poi.ID] = a
		}
		a.Visits++
		a.GradeUnits += model.GradeUnits(v.Grade)
	}
	aggs := make([]Agg, 0, len(sums))
	for _, a := range sums {
		aggs = append(aggs, *a)
	}
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

// oraclePOI is POI id as it looks in a given era: a POI that comes back
// after the view released it arrives with different metadata, one that
// stays referenced across eras must keep the metadata it was first seen with.
func oraclePOI(id int64, era int) model.POI {
	return model.POI{
		ID: id, Name: fmt.Sprintf("poi-%d-era-%d", id, era),
		Lat: float64((id*7 + int64(era)) % 10), Lon: float64((id*3 + int64(era)) % 10),
		Keywords: []string{[]string{"food", "coffee", "culture"}[(id+int64(era))%3], "poi"},
	}
}

// bucketCount is the view's live bucket count.
func bucketCount(v *HotInView) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.buckets)
}

// checkWindows holds the view's windows to their invariant: at most
// maxWindows of them, each starting at or above the floor, each with a
// distinct range, and each equal to a fresh sum of the buckets it covers —
// the same slots with the same totals, every entry found by pos.
func checkWindows(v *HotInView) error {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.windows) > maxWindows {
		return fmt.Errorf("%d windows held, bound %d", len(v.windows), maxWindows)
	}
	type total struct{ visits, gradeUnits int64 }
	ranges := map[[2]int64]bool{}
	for _, w := range v.windows {
		if w.from < v.low || w.last < w.from {
			return fmt.Errorf("window [%d, %d] held with the floor at %d", w.from, w.last, v.low)
		}
		if ranges[[2]int64{w.from, w.last}] {
			return fmt.Errorf("window [%d, %d] held twice", w.from, w.last)
		}
		ranges[[2]int64{w.from, w.last}] = true
		want := map[int32]total{}
		for bs, b := range v.buckets {
			if bs < w.from || bs > w.last {
				continue
			}
			for _, c := range b.entries {
				t := want[c.slot]
				want[c.slot] = total{t.visits + c.visits, t.gradeUnits + c.gradeUnits}
			}
		}
		if len(w.entries) != len(want) || len(w.pos) != len(want) {
			return fmt.Errorf("window [%d, %d]: %d entries / %d positions, buckets sum to %d slots", w.from, w.last, len(w.entries), len(w.pos), len(want))
		}
		for i, c := range w.entries {
			if got := (total{c.visits, c.gradeUnits}); got != want[c.slot] || w.pos[c.slot] != int32(i) {
				return fmt.Errorf("window [%d, %d] slot %d at %d: %+v, buckets sum to %+v (pos %d)", w.from, w.last, c.slot, i, got, want[c.slot], w.pos[c.slot])
			}
			if v.slots[c.slot].refs == 0 {
				return fmt.Errorf("window [%d, %d] names free slot %d", w.from, w.last, c.slot)
			}
		}
	}
	return nil
}

// TestViewAgainstOracle is the seeded differential test of the view's
// layout: Apply batches with out-of-order and behind-the-horizon timestamps,
// time jumps that expire most buckets, and a POI population that turns over
// so slots are freed and reused; after every batch Floor, Buckets and TopK
// (aggregates with their metadata, candidates, order, served start) must
// equal the oracle's for a handful of random specs — box / keyword / both /
// neither, limit 0 / 1 / 10 / above the candidate count, windows aligned
// and not, wider than the horizon, wholly behind the floor, unbounded, empty
// and inverted. Grades are fractional, as the classifier's are: sums in grade
// units are exact in any order, so the aggregates compare with ==.
//
// Reads repeat windows so that held ones are compared too: each random spec
// is read twice, the second time with its start moved inside the same
// bucket and another box and limit (a hit that must serve its own start),
// and three standing specs are read after every batch, so the batches'
// out-of-order visits land in windows already held, the floor crosses their
// starts and slots turn over under them. After every batch the held windows
// must equal fresh sums of their buckets (checkWindows).
func TestViewAgainstOracle(t *testing.T) {
	const minute = int64(60 * 1000)
	geometries := []ViewOptions{
		{BucketMillis: 60 * minute, HorizonMillis: 48 * 60 * minute},
		{BucketMillis: 20 * minute, HorizonMillis: 10 * 60 * minute},
		{BucketMillis: 60 * minute, HorizonMillis: 60 * minute},
		{BucketMillis: 7 * minute, HorizonMillis: 30 * 60 * minute},
	}
	for seed, opts := range geometries {
		t.Run(fmt.Sprintf("seed-%d", seed+1), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed + 1)))
			v, err := NewHotInView(opts)
			if err != nil {
				t.Fatal(err)
			}
			o := &viewOracle{bucket: opts.BucketMillis, horizon: opts.HorizonMillis, meta: map[int64]model.POI{}}
			var standing []TopKSpec // read after every batch; see below
			check := func(step int) {
				t.Helper()
				if got, want := v.Floor(), o.floor(); got != want {
					t.Fatalf("step %d: Floor = %d, oracle %d", step, got, want)
				}
				if got, want := bucketCount(v), o.buckets(); got != want {
					t.Fatalf("step %d: Buckets = %d, oracle %d", step, got, want)
				}
				// Release: exactly the POIs with a retained visit hold a slot, and
				// a freed slot holds no metadata.
				if len(v.slotOf) != len(o.meta) {
					t.Fatalf("step %d: %d POIs tracked, oracle %d", step, len(v.slotOf), len(o.meta))
				}
				for i := range v.slots {
					if sl := &v.slots[i]; sl.refs == 0 && !reflect.DeepEqual(sl.poi, model.POI{}) {
						t.Fatalf("step %d: freed slot %d still holds %+v", step, i, sl.poi)
					}
				}
				if err := checkWindows(v); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				specs := append([]TopKSpec(nil), standing...)
				for q := 0; q < 4; q++ {
					spec := randomSpec(rng, o)
					again := randomSpec(rng, o)
					again.FromMillis, again.ToMillis = spec.FromMillis, spec.ToMillis
					if spec.FromMillis < spec.ToMillis-1 && o.bucketStart(spec.FromMillis) < o.bucketStart(spec.ToMillis-1) {
						again.FromMillis = o.bucketStart(spec.FromMillis) + rng.Int63n(o.bucket)
					}
					specs = append(specs, spec, again)
				}
				for _, spec := range specs {
					aggs, candidates, served := v.TopKFrom(spec)
					want, wantCandidates := o.topK(spec)
					if candidates != wantCandidates || len(aggs) != len(want) {
						t.Fatalf("step %d spec %+v: %d aggs / %d candidates, oracle %d / %d", step, spec, len(aggs), candidates, len(want), wantCandidates)
					}
					for i := range want {
						if !reflect.DeepEqual(aggs[i], want[i]) {
							t.Fatalf("step %d spec %+v rank %d: %+v, oracle %+v", step, spec, i+1, aggs[i], want[i])
						}
					}
					if wantServed := min(max(spec.FromMillis, o.floor()), spec.ToMillis); served != wantServed {
						t.Fatalf("step %d spec %+v: served from %d, oracle %d", step, spec, served, wantServed)
					}
					two, twoCandidates := v.TopK(spec)
					if !reflect.DeepEqual(two, aggs) || twoCandidates != candidates {
						t.Fatalf("step %d spec %+v: TopK and TopKFrom disagree", step, spec)
					}
				}
			}
			check(0) // the empty view
			now := int64(1_000_000) * minute
			for step := 1; step <= 300; step++ {
				if step%20 == 1 {
					// Trailing windows over the clock as it is now: held across
					// the next twenty batches while the clock moves past them.
					end := o.bucketStart(now) + opts.BucketMillis
					standing = standing[:0]
					for _, buckets := range []int64{1, 3, opts.HorizonMillis / opts.BucketMillis} {
						standing = append(standing, TopKSpec{FromMillis: end - buckets*opts.BucketMillis, ToMillis: end, Limit: 3})
					}
				}
				switch r := rng.Intn(40); {
				case r == 0:
					now += opts.HorizonMillis + rng.Int63n(opts.HorizonMillis) // expires everything older
				case r < 4:
					now += opts.HorizonMillis * 3 / 4 // expires most buckets
				default:
					now += rng.Int63n(2 * opts.BucketMillis)
				}
				// Twelve POIs are in fashion at a time; the set slides on every
				// 25 steps, so old ones drain out of the view and free slots.
				era := step / 25
				batch := make([]model.Visit, 1+rng.Intn(40))
				for i := range batch {
					at := now - rng.Int63n(3*opts.BucketMillis)
					switch rng.Intn(10) {
					case 0:
						at = now - rng.Int63n(opts.HorizonMillis+4*opts.BucketMillis) // anywhere, some behind the horizon
					case 1:
						at = now + rng.Int63n(opts.BucketMillis) // ahead of the batch's clock
					}
					id := int64(era*4+rng.Intn(12)) + 1
					batch[i] = model.Visit{UserID: int64(i), POI: oraclePOI(id, era), Time: at, Grade: 1 + 4*rng.Float64()}
				}
				v.Apply(batch)
				o.apply(batch)
				check(step)
			}
			if len(v.slots) >= 300/25*4+12 {
				t.Errorf("%d slots for a population that never exceeds 24 live POIs: freed slots are not reused", len(v.slots))
			}
		})
	}
}

// randomSpec draws one read against the oracle's current clock.
func randomSpec(rng *rand.Rand, o *viewOracle) TopKSpec {
	var spec TopKSpec
	box := geo.NewRect(geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: float64(2 + rng.Intn(6)), Lon: float64(2 + rng.Intn(6))})
	switch rng.Intn(4) {
	case 0:
		spec.BBox = &box
	case 1:
		spec.Keyword = []string{"food", "coffee", "absent"}[rng.Intn(3)]
	case 2:
		spec.BBox, spec.Keyword = &box, "poi"
	}
	spec.Limit = []int{0, 1, 10, 1000}[rng.Intn(4)]
	end := o.bucketStart(o.high) + o.bucket
	span := o.bucket * (1 + rng.Int63n(2*o.horizon/o.bucket+2)) // up to twice the horizon
	switch rng.Intn(9) {
	case 0: // aligned trailing window
		spec.FromMillis, spec.ToMillis = end-span, end
	case 1, 2: // unaligned, anywhere near the retained range
		spec.ToMillis = end - rng.Int63n(o.horizon+o.bucket)
		spec.FromMillis = spec.ToMillis - rng.Int63n(span) - 1
	case 3: // wider than the horizon
		spec.FromMillis, spec.ToMillis = end-3*o.horizon-rng.Int63n(o.bucket), end+rng.Int63n(o.bucket)
	case 4: // wholly behind the floor
		spec.ToMillis = o.floor() - rng.Int63n(o.bucket)
		spec.FromMillis = spec.ToMillis - span
	case 5: // unbounded on one side or both: more steps than buckets
		spec.FromMillis, spec.ToMillis = math.MinInt64, math.MaxInt64
		if rng.Intn(2) == 0 {
			spec.ToMillis = end - o.bucket*rng.Int63n(4)
		}
	case 6: // empty
		spec.FromMillis, spec.ToMillis = end-span, end-span
	case 7: // inverted
		spec.FromMillis, spec.ToMillis = end, end-span
	case 8: // one bucket
		spec.FromMillis = end - o.bucket*(1+rng.Int63n(4))
		spec.ToMillis = spec.FromMillis + 1
	}
	return spec
}

// TestViewConcurrentApplyAndTopK runs appliers that march time past the
// horizon with a population that turns over against readers of every read
// method (meaningful under -race). Readers repeat a few trailing windows, so
// most reads find their window held while the appliers fold visits into it,
// the floor crosses it and a newer range evicts it. A reader can still hold
// the answer to its own invariants: ranking order, the limit, candidates ≥
// results, a served start inside [from, to], and a floor that never falls;
// once the appliers stop, every held window must equal a fresh sum of its
// buckets.
func TestViewConcurrentApplyAndTopK(t *testing.T) {
	v, err := NewHotInView(ViewOptions{BucketMillis: hourMs, HorizonMillis: 12 * hourMs})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 1500
	var clock atomic.Int64
	var appliers, readers sync.WaitGroup
	for a := 0; a < 2; a++ {
		appliers.Add(1)
		go func(seed int64) {
			defer appliers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				now := clock.Add(hourMs / 4)
				batch := make([]model.Visit, 1+rng.Intn(20))
				for j := range batch {
					era := int(now / (30 * hourMs))
					batch[j] = model.Visit{UserID: seed, POI: oraclePOI(int64(era*5+rng.Intn(15))+1, era),
						Time: now - rng.Int63n(14*hourMs), Grade: float64(1 + rng.Intn(5))}
				}
				v.Apply(batch)
			}
		}(int64(a + 1))
	}
	var done atomic.Bool
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			box := geo.NewRect(geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: 5, Lon: 5})
			lastFloor := int64(math.MinInt64)
			for !done.Load() {
				end := (clock.Load()/hourMs + 1) * hourMs
				spec := TopKSpec{FromMillis: end - []int64{2, 6, 20}[rng.Intn(3)]*hourMs, ToMillis: end, Limit: rng.Intn(3) * 5}
				if rng.Intn(2) == 0 {
					spec.BBox = &box
				}
				aggs, candidates, served := v.TopKFrom(spec)
				if candidates < len(aggs) || (spec.Limit > 0 && len(aggs) > spec.Limit) {
					t.Errorf("spec %+v: %d aggs, %d candidates", spec, len(aggs), candidates)
					return
				}
				if served < spec.FromMillis || served > spec.ToMillis {
					t.Errorf("spec %+v: served from %d", spec, served)
					return
				}
				for i := range aggs {
					if aggs[i].Visits < 1 || (spec.BBox != nil && !box.Contains(aggs[i].POI.Point())) {
						t.Errorf("spec %+v: rank %d is %+v", spec, i+1, aggs[i])
						return
					}
					if i > 0 && (aggs[i-1].Visits < aggs[i].Visits || (aggs[i-1].Visits == aggs[i].Visits && aggs[i-1].POI.ID >= aggs[i].POI.ID)) {
						t.Errorf("spec %+v: ranking out of order at %d: %+v before %+v", spec, i, aggs[i-1], aggs[i])
						return
					}
				}
				if f := v.Floor(); f < lastFloor {
					t.Errorf("floor fell from %d to %d", lastFloor, f)
					return
				} else {
					lastFloor = f
				}
				_ = bucketCount(v)
			}
		}(int64(r + 10))
	}
	appliers.Wait()
	done.Store(true)
	readers.Wait()
	if err := checkWindows(v); err != nil {
		t.Fatal(err)
	}
}

// TestTopKAllocsConstant pins the read's allocations. A read whose window
// is held allocates two slices — the kept candidates and the result —
// whatever the window's bucket count and however many candidates there are.
// A read whose window is not held first builds it: a slot-indexed scratch,
// the window record, its entries and its position map, which is four
// allocations of its own at this catalog size. The misses here each take a
// range no earlier read left held.
func TestTopKAllocsConstant(t *testing.T) {
	const wantHit, wantMiss = 2, 9
	v, err := NewHotInView(ViewOptions{BucketMillis: hourMs, HorizonMillis: 200 * hourMs})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for h := int64(0); h < 150; h++ {
		batch := make([]model.Visit, 400)
		for i := range batch {
			batch[i] = mkVisit(1, int64(rng.Intn(300)+1), h*hourMs+rng.Int63n(hourMs), 3)
		}
		v.Apply(batch)
	}
	few := geo.NewRect(geo.Point{Lat: 0, Lon: 0}, geo.Point{Lat: 0.5, Lon: 0.5}) // a tenth of the POIs
	for _, tc := range []struct {
		name string
		spec TopKSpec
	}{
		{"2 buckets", TopKSpec{FromMillis: 148 * hourMs, ToMillis: 150 * hourMs, Limit: 10}},
		{"150 buckets", TopKSpec{FromMillis: 0, ToMillis: 150 * hourMs, Limit: 10}},
		{"150 buckets, few candidates", TopKSpec{BBox: &few, FromMillis: 0, ToMillis: 150 * hourMs, Limit: 10}},
		{"more steps than buckets", TopKSpec{FromMillis: -1000 * hourMs, ToMillis: 1000 * hourMs, Limit: 10}},
	} {
		_, candidates := v.TopK(tc.spec)
		if got := testing.AllocsPerRun(20, func() { v.TopK(tc.spec) }); got != wantHit {
			t.Errorf("%s (%d candidates): %v allocations per held-window TopK, want %d", tc.name, candidates, got, wantHit)
		}
	}
	for _, buckets := range []int64{2, 150} {
		end := int64(150)
		miss := func() {
			end-- // one bucket earlier each run: a range never read before
			v.TopK(TopKSpec{FromMillis: (end - buckets) * hourMs, ToMillis: end * hourMs, Limit: 10})
		}
		if got := testing.AllocsPerRun(20, miss); got != wantMiss {
			t.Errorf("%d buckets: %v allocations per TopK building its window, want %d", buckets, got, wantMiss)
		}
	}
}
