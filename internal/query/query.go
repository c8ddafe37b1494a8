// Package query implements the Query Answering module: personalized POI
// search executed as coprocessors fanned out across the Visits table's
// regions (with the web-server merge the paper describes), and
// trending-events queries — personalized on the coprocessor path, global
// (non-personalized) from the materialized view.
//
// Every query executes for real against the real stores — in parallel, on
// the shared scatter-gather pool (internal/exec) — while the simulated
// cluster converts the measured per-region work into latency, which is what
// the Figure 2/3 experiments sweep. Queries carry a context.Context end to
// end: cancelling it aborts region scans mid-flight.
package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modissense/internal/admit"
	"modissense/internal/cluster"
	"modissense/internal/exec"
	"modissense/internal/faultinject"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/obs"
	"modissense/internal/repos"
)

// OrderBy selects the ranking criterion of a search.
type OrderBy string

// Ranking criteria. Interest ranks by the friends' average sentiment grade
// ("the opinion of one's friends"); Hotness ranks by crowd concentration
// (visit volume).
const (
	ByInterest OrderBy = "interest"
	ByHotness  OrderBy = "hotness"
)

// Spec is one personalized search query — the REST API's search parameters
// from §2.2: bounding box, keywords, friend list, time window, sorting
// criterion and result count.
type Spec struct {
	BBox      *geo.Rect
	Keyword   string
	FriendIDs []int64
	// FromMillis/ToMillis bound the visit window (inclusive).
	FromMillis int64
	ToMillis   int64
	OrderBy    OrderBy
	Limit      int
	// NoCache bypasses the result cache for this query in both directions:
	// no lookup, no store. It is excluded from the cache key; the
	// equivalence tests use it to compare a cached answer against a fresh
	// scan of the same spec.
	NoCache bool
	// RegionTopK, when positive, makes each region's coprocessor return
	// only its K best partial aggregates instead of all of them. This cuts
	// shipped data and merge cost but can miss POIs whose visits are
	// spread thinly across many regions (regions partition by *user*, so
	// one POI's aggregate may be split) — an approximation the
	// topk-ablation experiment quantifies. Zero keeps the exact merge.
	RegionTopK int
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if len(s.FriendIDs) == 0 {
		return fmt.Errorf("query: personalized query needs at least one friend")
	}
	if s.ToMillis < s.FromMillis {
		return fmt.Errorf("query: time window inverted")
	}
	switch s.OrderBy {
	case ByInterest, ByHotness, "":
	default:
		return fmt.Errorf("query: unsupported order %q", s.OrderBy)
	}
	if s.Limit < 0 {
		return fmt.Errorf("query: negative limit")
	}
	if s.RegionTopK < 0 {
		return fmt.Errorf("query: negative region top-k")
	}
	return nil
}

func (s *Spec) orderOrDefault() OrderBy {
	if s.OrderBy == "" {
		return ByInterest
	}
	return s.OrderBy
}

// ScoredPOI is one ranked result.
type ScoredPOI struct {
	POI model.POI `json:"poi"`
	// Score is the average sentiment grade of the matching visits (1–5).
	Score float64 `json:"score"`
	// Visits is the number of matching visits (the hotness evidence).
	Visits int `json:"visits"`
}

// Result is a completed personalized query. Its JSON tags define the wire
// form, which AppendJSON and DecodeJSON (resultjson.go) write and read by
// hand; a field added here must be added there
// (TestResultJSONCoversEveryField).
type Result struct {
	POIs []ScoredPOI `json:"pois"`
	// LatencySeconds is the simulated end-to-end latency.
	LatencySeconds float64 `json:"latency_seconds"`
	// Exec reports the real scatter-gather execution of this query: tasks,
	// parallelism, rows scanned, bytes merged, wall time.
	Exec obs.QuerySnapshot `json:"exec"`
	// Work aggregates the per-region coprocessor work.
	Work cluster.CoprocessorWork `json:"-"`
	// Regions is the number of regions that participated.
	Regions int `json:"-"`
	// Degraded reports a partial answer: at least one region exhausted its
	// read attempts and was dropped under ReadPolicy.AllowDegraded.
	Degraded bool `json:"degraded"`
	// Cached reports the ranking was served from the result cache: no
	// region work ran, and Exec is zero.
	Cached bool `json:"cached,omitempty"`
	// MissingRegions lists the ids of the regions dropped from a degraded
	// answer (empty on a complete one).
	MissingRegions []int `json:"missing_regions,omitempty"`
	// WindowClamped reports a friendless trending window reached behind
	// what the materialized view retains (its horizon or coverage floor) and
	// was narrowed to the retained part before the view answered it.
	WindowClamped bool `json:"window_clamped,omitempty"`
	// FailoverInProgress reports a write-path primary cutover was pending
	// on the backing table when this answer was produced: reads still
	// serve, but writes to the affected regions may fail fast until the
	// promotion completes.
	FailoverInProgress bool `json:"failover_in_progress,omitempty"`
	// EffectiveFromMillis is the window start actually served when
	// WindowClamped is set (zero otherwise).
	EffectiveFromMillis int64 `json:"effective_from_millis,omitempty"`
}

// Engine wires the stores and the simulated cluster.
type Engine struct {
	visits *repos.VisitsRepo
	pois   *repos.POIRepo
	// clus describes the deployment; each request (or RunConcurrent batch)
	// obtains its simulated time from a Simulate call of its own.
	clus *cluster.Cluster
	// readPolicy budgets and hedges each region's read of the personalized
	// scatter; never nil (see SetReadPolicy).
	readPolicy atomic.Pointer[ReadPolicy]
	// injector intercepts read attempts with deterministic faults (tests
	// and TestScenarioReadFaults).
	injector atomic.Pointer[faultinject.Injector]
	// breakers gates read attempts on per-node circuit breakers (nil =
	// breakers off).
	breakers atomic.Pointer[admit.BreakerSet]
	// retryBudget throttles retries+hedges across all concurrent queries
	// (nil = unthrottled).
	retryBudget atomic.Pointer[exec.RetryBudget]
	// hedgeTracker feeds the observed attempt-latency distribution into the
	// adaptive hedge threshold, shared across queries.
	hedgeTracker *exec.LatencyTracker
	// view answers friendless trending queries from the incrementally
	// maintained bucket aggregates (nil = personalized trending only).
	view atomic.Pointer[matview.HotInView]
	// cache, when set, memoizes personalized merge state keyed by the
	// normalized spec, patched by friend check-ins (nil = no caching).
	cache atomic.Pointer[matview.ResultCache]
}

// NewEngine builds the query engine.
func NewEngine(visits *repos.VisitsRepo, pois *repos.POIRepo, clus *cluster.Cluster) (*Engine, error) {
	if visits == nil || pois == nil || clus == nil {
		return nil, fmt.Errorf("query: engine dependencies must be non-nil")
	}
	e := &Engine{visits: visits, pois: pois, clus: clus, hedgeTracker: exec.NewLatencyTracker(0)}
	e.SetReadPolicy(nil)
	return e, nil
}

// rankKey is what the ranking orders a POI's aggregate by: its sums and, as
// the tiebreak, its id. The grade sum is in model.GradeUnits, so it is the
// same whatever order the rows were added in.
type rankKey struct {
	id         int64
	gradeUnits int64
	visits     int
}

// less is the strict total order of the final ranking: score (or visit
// count) descending, POI id ascending as the tiebreak. The exact sort, the
// streaming top-k heap and the region top-k cut all rank through this one
// function, which is what makes the merge paths return identical results.
func (a rankKey) less(order OrderBy, b rankKey) bool {
	switch order {
	case ByHotness:
		if a.visits != b.visits {
			return a.visits > b.visits
		}
	default: // ByInterest
		sa := model.MeanGrade(a.gradeUnits, a.visits)
		sb := model.MeanGrade(b.gradeUnits, b.visits)
		if sa != sb {
			return sa > sb
		}
	}
	return a.id < b.id
}

// poiAgg is one merge candidate: a POI's aggregate summed over the regions,
// with its document by pointer — the shared version a keyed row names, or a
// copy the candidate owns for a normalized row, which names none. Nothing
// writes through poi: shared versions are immutable, and an owned copy is
// never changed once the candidate is built.
type poiAgg struct {
	poi        *model.POI
	gradeUnits int64
	visits     int
}

func (a *poiAgg) key() rankKey {
	return rankKey{id: a.poi.ID, gradeUnits: a.gradeUnits, visits: a.visits}
}

// regionAgg is one POI's partial aggregate inside a region. It keeps the
// payload of the POI's first matching row in the region, undecoded — a
// sub-slice of the store's bytes, which the store never rewrites — and the
// size estimate of the document it carries; Engine.sum takes one document
// per merged candidate from the first region that reported it.
type regionAgg struct {
	rankKey
	wire    int64
	payload []byte
}

// wireBytes estimates the serialized size of one partial aggregate as it
// would travel region → web server (id, sums, name, keywords), from the
// view of the row whose document the aggregate keeps: a keyed row's shared
// document's text lengths, which are those a copy of it would carry, and
// none for a normalized row.
func wireBytes(v *model.VisitView) int64 {
	name, keywords, keywordBytes := v.DocTextLen()
	return int64(48 + name + keywordBytes + 3*keywords)
}

// maxDenseSlot bounds the POI ids whose entries an aggregation keeps in an
// array indexed by id; the catalog's ids are small and dense. Other ids take
// a map.
const maxDenseSlot = 1 << 20

// aggEntry is one POI's state in one aggregation.
type aggEntry struct {
	// slot is the index of the POI's aggregate plus one; zero while the POI
	// has none.
	slot int32
	// listed marks a dense entry on its scratch's used list.
	listed bool
	// doc is the shared document the POI's last row resolved to, the hint
	// the POI's next row, most likely naming the same version, resolves
	// with.
	doc model.DocHandle
}

// aggScratch is one aggregation's reusable state: an entry per POI id and
// the aggregate slice the entries index. Every region aggregator and every
// Engine.sum takes one from aggScratches, and Engine.sum hands back its own
// and those of the outputs it folds, so a query's aggregation grows no array,
// no map and no slice from empty.
type aggScratch struct {
	// dense holds the entries of ids in [0, maxDenseSlot), indexed by id and
	// grown by doubling to the largest id seen; used lists the ids whose
	// entries the aggregation touched.
	dense []aggEntry
	used  []int32
	// sparse holds the entries of every other id.
	sparse map[int64]*aggEntry
	aggs   []regionAgg
}

var aggScratches = sync.Pool{New: func() any { return &aggScratch{sparse: map[int64]*aggEntry{}} }}

// takeScratch returns an empty scratch from the pool.
func takeScratch() *aggScratch { return aggScratches.Get().(*aggScratch) }

// entry returns id's entry.
func (s *aggScratch) entry(id int64) *aggEntry {
	if id >= 0 && id < maxDenseSlot {
		if id >= int64(len(s.dense)) {
			grown := make([]aggEntry, min(max(2*len(s.dense), int(id)+1, 64), maxDenseSlot))
			copy(grown, s.dense)
			s.dense = grown
		}
		e := &s.dense[id]
		if !e.listed {
			e.listed = true
			s.used = append(s.used, int32(id))
		}
		return e
	}
	e := s.sparse[id]
	if e == nil {
		e = new(aggEntry)
		s.sparse[id] = e
	}
	return e
}

// reset empties s for its next aggregation, keeping what its entries and
// aggs — the slice built on s, which may have outgrown s.aggs — have grown
// to. Only the dense entries the aggregation touched are cleared, so the
// cost is the POIs it saw, not the largest id. The slice is zeroed up to its
// capacity, so a scratch waiting in the pool pins no store payload.
func (s *aggScratch) reset(aggs []regionAgg) {
	for _, id := range s.used {
		s.dense[id] = aggEntry{}
	}
	s.used = s.used[:0]
	clear(s.sparse)
	clear(aggs[:cap(aggs)])
	s.aggs = aggs[:0]
}

// release resets s and returns it to the pool. Neither s nor aggs may be
// touched afterwards.
func (s *aggScratch) release(aggs []regionAgg) {
	s.reset(aggs)
	aggScratches.Put(s)
}

// regionOutput is what one coprocessor execution returns. Its aggs live in
// scratch and belong to the query until Engine.sum has folded them; sum then
// releases the output, and only work may be read after that.
type regionOutput struct {
	aggs    []regionAgg
	work    cluster.CoprocessorWork
	scratch *aggScratch
}

// release hands the output's scratch back to the pool and clears aggs. An
// output that never reaches Engine.sum — a losing hedge or retry attempt, a
// failed region, a cancelled query — is never released: the collector takes
// its scratch, so none is returned twice or read after its return.
func (o *regionOutput) release() {
	o.scratch.release(o.aggs)
	o.aggs, o.scratch = nil, nil
}

// queryPlan holds one query's real execution artifacts, ready for the
// timing simulation.
type queryPlan struct {
	spec    *Spec
	outputs []*regionOutput
	regions []*kvstore.Region
	// nodes[i] is the simulated node that served outputs[i] — the primary's
	// node, or a replica's when a hedge won — so the timing simulation
	// charges the node that actually did the work.
	nodes []int
}

// visitsCoprocessor executes one query against one region, HBase-style:
// read each local friend's visit rows, filter and aggregate per POI. Every
// local friend's row range goes into one multi-range scan per region
// (kvstore.MultiScanCtx): one store lock, one iterator set, segment pruning.
// The scan is late-materializing: each row is filtered and folded into its
// POI's sums from an allocation-free view of the encoded payload, and no
// POI document is decoded in the region at all (regionAggregator).
type visitsCoprocessor struct {
	spec   *Spec
	schema repos.VisitSchema
	// ranges holds one visit row range per friend, built once per query:
	// friends are sorted and distinct, so the ranges are sorted and
	// non-overlapping — exactly the multi-range contract.
	ranges []kvstore.ScanRange
}

// friendRanges builds the per-friend visit row ranges of a query's window
// from its sorted, deduplicated friend list: none when the window holds no
// time a visit can have.
func friendRanges(friends []int64, fromMillis, toMillis int64) []kvstore.ScanRange {
	ranges := make([]kvstore.ScanRange, 0, len(friends))
	for _, friend := range friends {
		if start, stop := repos.VisitScanBounds(friend, fromMillis, toMillis); start < stop {
			ranges = append(ranges, kvstore.ScanRange{Start: start, Stop: stop})
		}
	}
	return ranges
}

// runRegion is the region function kvstore.ExecRegions fans out: the region
// scan honors cancellation at row granularity, and the work it did is noted
// on the span of the read attempt it runs under.
func (cp *visitsCoprocessor) runRegion(ctx context.Context, r *kvstore.Region) (*regionOutput, error) {
	regionStart := time.Now()
	defer func() { mCoprocLatency.ObserveDuration(time.Since(regionStart)) }()
	agg := newRegionAggregator(cp, takeScratch())
	// A friend whose rows a split divided is read in both regions.
	ranges := r.ClipRanges(cp.ranges)
	agg.out.work.Friends = len(ranges)
	if len(ranges) > 0 {
		if err := r.Store().MultiScanCtx(ctx, ranges, 0, agg.visitRow); err != nil {
			return nil, err
		}
	}
	out := agg.finish()
	span := obs.SpanFromContext(ctx)
	span.SetAttrInt("rows", int64(out.work.RowsScanned))
	span.SetAttrInt("friends", int64(out.work.Friends))
	span.SetAttrInt("candidates", int64(out.work.CandidatePOIs))
	return out, nil
}

// regionAggregator folds one region's scanned visit rows into per-POI
// partial aggregates. A row costs its POI's entry, found by one array index,
// and its document, which the entry's handle resolves with one compare when
// the row names the same document version as the POI's last row (the
// common case). Predicates run on every row — two visits to one POI can
// carry different replicated documents (a HotIn refresh rewrites them), so a
// verdict cannot be kept per POI, and evaluating the bbox and keyword on the
// resolved document reads no more than a verdict kept per version would.
// The aggregate keeps the payload of the first matching row only, and
// decodes nothing of it. The entries and the aggregate slice are an empty
// scratch the aggregator is handed, which its output carries to Engine.sum;
// the document handles in it live for this aggregation only.
type regionAggregator struct {
	cp  *visitsCoprocessor
	out *regionOutput
}

func newRegionAggregator(cp *visitsCoprocessor, s *aggScratch) *regionAggregator {
	return &regionAggregator{cp: cp, out: &regionOutput{aggs: s.aggs, scratch: s}}
}

// visitRow is the scan callback: it aggregates one visit row and never
// stops the scan. Payloads are read through model.VisitView; one it rejects
// is skipped, still accounted as scanned.
func (g *regionAggregator) visitRow(row kvstore.RowResult) bool {
	raw, ok := row.Get(repos.VisitQualifier)
	if !ok {
		return true
	}
	g.out.work.RowsScanned++
	var v model.VisitView
	if v.ParseFields(raw) != nil {
		return true
	}
	e := g.out.scratch.entry(v.POIID)
	doc, err := v.Resolve(e.doc)
	if err != nil {
		return true
	}
	e.doc = doc
	// Under the replicated schema every predicate evaluates right here; the
	// normalized schema can only filter by time and must ship every
	// aggregate to the web server for the join.
	if g.cp.schema == repos.SchemaReplicated && !g.cp.spec.matchesView(&v) {
		return true
	}
	g.add(e, &v, raw)
	return true
}

// add folds one matched visit into its POI's aggregate. The POI's first row
// in the region is the one whose payload and document size the aggregate
// keeps.
func (g *regionAggregator) add(e *aggEntry, v *model.VisitView, payload []byte) {
	g.out.work.VisitsMatched++
	if e.slot == 0 {
		g.out.aggs = append(g.out.aggs, regionAgg{rankKey: rankKey{id: v.POIID}, wire: wireBytes(v), payload: payload})
		e.slot = int32(len(g.out.aggs))
	}
	a := &g.out.aggs[e.slot-1]
	a.gradeUnits += model.GradeUnits(v.Grade)
	a.visits++
}

// finish applies the optional region top-k cut — the coprocessor "sorts the
// candidate POIs according to the aggregated scores" and ships the best K —
// and returns the region's output. Without a cut the aggregates stay in
// first-seen order: the merge sums them by id and reads no order.
func (g *regionAggregator) finish() *regionOutput {
	out := g.out
	if k := g.cp.spec.RegionTopK; k > 0 && len(out.aggs) > k {
		order := g.cp.spec.orderOrDefault()
		sort.Slice(out.aggs, func(i, j int) bool {
			return out.aggs[i].less(order, out.aggs[j].rankKey)
		})
		out.aggs = out.aggs[:k]
	}
	out.work.CandidatePOIs = len(out.aggs)
	return out
}

// inBBox evaluates the spatial predicate on a POI location.
func (s *Spec) inBBox(lat, lon float64) bool {
	return s.BBox == nil || s.BBox.Contains(geo.Point{Lat: lat, Lon: lon})
}

// matchesView evaluates the spatial/keyword predicates on an encoded visit.
// It reads the location only under a bbox, so a scan without one never
// reads a shared document's coordinates.
func (s *Spec) matchesView(v *model.VisitView) bool {
	if s.BBox != nil && !s.inBBox(v.Location()) {
		return false
	}
	return s.Keyword == "" || v.HasKeyword(s.Keyword)
}

// matchesPOI evaluates the spatial/keyword predicates on a decoded POI
// document: a joined POI in the normalized schema's merge, a check-in's in a
// cached entry's patch.
func (s *Spec) matchesPOI(p *model.POI) bool {
	if !s.inBBox(p.Lat, p.Lon) {
		return false
	}
	if s.Keyword == "" {
		return true
	}
	for _, k := range p.Keywords {
		if k == s.Keyword {
			return true
		}
	}
	return false
}

// aggLess orders merge candidates by rankKey.less.
func aggLess(order OrderBy, a, b *poiAgg) bool {
	return a.key().less(order, b.key())
}

func sortAggs(aggs []poiAgg, order OrderBy) {
	sort.Slice(aggs, func(i, j int) bool {
		return aggLess(order, &aggs[i], &aggs[j])
	})
}

// boundedAggHeap keeps the k best aggregates seen so far, worst at the
// root, so the streaming merge is O(n log k) instead of sorting everything.
// Its items are sized once, to what it can keep; it fills them unordered,
// orders them into a heap when they reach k (or when sorted is called
// first), and every reordering is one sift-down.
type boundedAggHeap struct {
	items []poiAgg
	order OrderBy
	k     int
}

func newBoundedAggHeap(order OrderBy, k, n int) boundedAggHeap {
	return boundedAggHeap{items: make([]poiAgg, 0, min(k, n)), order: order, k: k}
}

// siftDown moves items[i] down the heap of items[:n] to its place. The
// comparison is inverted: the root is the worst of the kept aggregates.
func (h *boundedAggHeap) siftDown(i, n int) {
	items := h.items
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && aggLess(h.order, &items[c], &items[r]) {
			c = r
		}
		if !aggLess(h.order, &items[i], &items[c]) {
			return
		}
		items[i], items[c] = items[c], items[i]
		i = c
	}
}

// heapify orders the items into a heap.
func (h *boundedAggHeap) heapify() {
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(i, len(h.items))
	}
}

// offer considers one aggregate for the top k, copying it only if it is kept.
func (h *boundedAggHeap) offer(a *poiAgg) {
	if len(h.items) < h.k {
		h.items = append(h.items, *a)
		if len(h.items) == h.k {
			h.heapify()
		}
		return
	}
	if aggLess(h.order, a, &h.items[0]) {
		h.items[0] = *a
		h.siftDown(0, len(h.items))
	}
}

// sorted heap-sorts the items in place into best-first order and returns
// them; the heap is spent.
func (h *boundedAggHeap) sorted() []poiAgg {
	if len(h.items) < h.k {
		h.heapify()
	}
	for n := len(h.items) - 1; n > 0; n-- {
		h.items[0], h.items[n] = h.items[n], h.items[0]
		h.siftDown(0, n)
	}
	return h.items
}

// sortedDistinctFriends copies, sorts and deduplicates a friend list. The
// coprocessor turns it into sorted non-overlapping row ranges, so duplicate
// ids must collapse here; a friend listed twice still contributes each of
// their visits once.
func sortedDistinctFriends(ids []int64) []int64 {
	friends := append([]int64(nil), ids...)
	sort.Slice(friends, func(i, j int) bool { return friends[i] < friends[j] })
	out := friends[:0]
	for i, f := range friends {
		if i == 0 || f != friends[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Run executes one personalized query and returns results plus simulated
// latency.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	results, err := e.RunConcurrent(ctx, []Spec{spec})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunConcurrent executes the given queries as simultaneous arrivals on the
// platform (the Figure 3 scenario): every query fans its coprocessor tasks
// out across the same simulated nodes, so queueing contention shapes the
// latencies exactly as shared region servers would. The real region work
// runs in parallel on the scatter-gather pool; cancelling ctx aborts the
// remaining scans and fails the batch with the context's error.
func (e *Engine) RunConcurrent(ctx context.Context, specs []Spec) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("query: no queries")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cost := e.clus.Config().Cost
	results := make([]*Result, len(specs))
	plans := make([]*queryPlan, len(specs))
	// hitMerged[qi] is, for a cache hit, how many candidates its ranking was
	// derived from on this request: all of the entry's when a friend's
	// check-in had been folded in since the last hit, else just the ranking.
	hitMerged := make([]int, len(specs))

	// liveSnap is the current iteration's unsettled epoch snapshot; the
	// deferred release settles it on the error returns below so an
	// abandoned query never pins its friends' epoch entries. Release is
	// nil-safe and idempotent, so the happy paths just clear it.
	var liveSnap *matview.EpochSnapshot
	defer func() { liveSnap.Release() }()

	// Phase 1: real execution of every query's coprocessors.
	for qi := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		spec := specs[qi]
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		friends := sortedDistinctFriends(spec.FriendIDs)
		// Result cache: a hit skips the scatter entirely; a miss snapshots
		// the friends' write epochs so the store after the merge can prove
		// no friend's check-in was in flight or announced mid-query.
		cache := e.cache.Load()
		useCache := cache != nil && !spec.NoCache
		var ckey string
		if useCache {
			ckey = e.cacheKey(&spec, friends)
			var pois []ScoredPOI
			hit := cache.Get(ckey, func(v matview.Value) {
				pois, hitMerged[qi] = v.(*cachedRanking).ranking()
			})
			if hit {
				mQueriesPersonalized.Inc()
				results[qi] = &Result{POIs: pois, Cached: true}
				continue // plans[qi] stays nil; phase 2 schedules parse+merge only
			}
			liveSnap = cache.Snapshot(friends)
		}
		cp := &visitsCoprocessor{spec: &spec, schema: e.visits.Schema(), ranges: friendRanges(friends, spec.FromMillis, spec.ToMillis)}
		stats := &obs.QueryStats{}
		qctx := obs.WithQueryStats(ctx, stats)
		mQueriesPersonalized.Inc()
		pol := e.readPolicy.Load()
		scatterSpan := obs.SpanFromContext(ctx).Child("scatter")
		sctx := obs.ContextWithSpan(qctx, scatterSpan)
		regionResults := kvstore.ExecRegions(sctx, e.visits.Table(), e.readOptions(pol), cp.runRegion)
		scatterSpan.End()
		plan := &queryPlan{spec: &spec}
		var missing []int
		replicaServed := false
		for _, rr := range regionResults {
			if rr.Err != nil {
				// The caller's own cancellation is always fatal: a timed-out
				// query must surface the deadline, not a degraded answer.
				if cerr := ctx.Err(); cerr != nil {
					return nil, cerr
				}
				// Shedding is an overload verdict, not a region fault: a
				// shed scatter must surface 503 instead of masquerading as
				// a degraded-but-OK answer.
				if errors.Is(rr.Err, exec.ErrShed) {
					return nil, rr.Err
				}
				if pol.AllowDegraded {
					missing = append(missing, rr.Region.ID)
					mRegionsMissing.Inc()
					continue
				}
				return nil, rr.Err
			}
			plan.outputs = append(plan.outputs, rr.Value)
			plan.regions = append(plan.regions, rr.Region)
			plan.nodes = append(plan.nodes, rr.ServedNode)
			replicaServed = replicaServed || rr.Meta.Replica > 0
		}
		if len(missing) > 0 {
			mQueriesDegraded.Inc()
		}
		plans[qi] = plan

		// Merge (real): combine per-region aggregates.
		mergeSpan := obs.SpanFromContext(ctx).Child("merge")
		mergeStart := time.Now()
		cands, totalWork := e.sum(plan, stats)
		merged := e.rank(&spec, cands)
		mMergeLatency.ObserveDuration(time.Since(mergeStart))
		mMergeCandidates.Observe(float64(totalWork.CandidatePOIs))
		mergeSpan.SetAttrInt("candidates", int64(totalWork.CandidatePOIs))
		mergeSpan.SetAttrInt("results", int64(len(merged)))
		mergeSpan.End()
		results[qi] = &Result{
			POIs: merged, Work: totalWork, Regions: len(plan.regions), Exec: stats.Snapshot(),
			Degraded: len(missing) > 0, MissingRegions: missing,
		}
		// Memoize only answers every region's primary served: a degraded
		// ranking must never be replayed to later callers, and a replica's
		// (a won hedge or retry) may lag its primary by intercepted shipments —
		// harmless once, but a cached entry is patched forward from what it
		// was stored with, never corrected. And only if no friend's write was
		// in flight or announced since the pre-scan snapshot (StoreIfFresh
		// rejects such results and consumes the snapshot; the other cases
		// release it).
		if useCache {
			if len(missing) == 0 && !replicaServed {
				cr := newCachedRanking(e, &spec, cands, merged)
				cache.StoreIfFresh(ckey, liveSnap, cr, cr.retainedBytes())
			} else {
				liveSnap.Release()
			}
			liveSnap = nil
		}
	}

	// Phase 2: schedule all queries as simultaneous arrivals, at time zero of
	// one simulation: the batch's members contend for the same nodes and web
	// servers, and for nothing any other request scheduled.
	_, err := e.clus.Simulate(func(s *cluster.Session) {
		for qi, plan := range plans {
			qi, plan := qi, plan
			web := s.PickWebServer()
			respond := func(done float64) { results[qi].LatencySeconds = done }
			if plan == nil {
				// Cache hit: the web server parses the request, reads the
				// memoized ranking — re-deriving it from the entry's
				// candidates if a check-in was folded in — and responds; no
				// region RPCs to charge.
				merge := cost.MergeServiceTime(hitMerged[qi], len(results[qi].POIs))
				s.Submit(web, 0, cost.WebParse, func(parseDone float64) {
					s.Submit(web, parseDone, merge, respond)
				})
				continue
			}
			// sum released the outputs' aggregates; their work remains.
			totalCandidates := 0
			for _, out := range plan.outputs {
				totalCandidates += out.work.CandidatePOIs
			}
			// The web server parses the request, then issues one RPC per
			// region; each region's coprocessor runs on its node's cores; when
			// the last region returns, the web server merges and responds.
			s.Submit(web, 0, cost.WebParse, func(parseDone float64) {
				if len(plan.outputs) == 0 {
					// Fully-degraded answer: every region was dropped, so the web
					// server replies with the empty merge straight after parsing.
					s.Submit(web, parseDone, cost.MergeServiceTime(0, 0), respond)
					return
				}
				remaining := len(plan.outputs)
				for ri, out := range plan.outputs {
					service := cost.CoprocessorServiceTime(out.work)
					s.Submit(s.Node(plan.nodes[ri]), parseDone+cost.RPC, service, func(lastRegion float64) {
						// Completions fire in time order: the last is the latest.
						remaining--
						if remaining > 0 {
							return
						}
						mergeService := cost.MergeServiceTime(totalCandidates, len(results[qi].POIs))
						if e.visits.Schema() == repos.SchemaNormalized {
							// The normalized schema pays the POI join at merge
							// time: one indexed lookup per candidate.
							mergeService += cost.RelationalServiceTime(totalCandidates)
						}
						s.Submit(web, lastRegion+cost.RPC, mergeService, respond)
					})
				}
			})
		}
	})
	if err != nil {
		return nil, err
	}
	for qi, r := range results {
		if r.LatencySeconds <= 0 {
			return nil, fmt.Errorf("query: query %d never completed in simulation", qi)
		}
	}
	// Stamp the write-availability advisory once per batch: clients polling
	// with queries learn a primary cutover is pending without issuing a
	// write probe.
	if e.visits.Table().FailoverInProgress() {
		for _, r := range results {
			r.FailoverInProgress = true
		}
	}
	return results, nil
}

// sum folds the regions' partial aggregates into one candidate per POI —
// every POI any region matched, before any limit — sorted by POI id. A
// candidate's document is taken, once, from the payload the first region
// that reported it kept: the shared version itself for a keyed row, or, for
// the normalized schema's id-only row, which names none, an id-only document
// in one slice of copies the candidates own. The candidates are the query's merge state: rank
// derives the answer from them, and a cached entry keeps them so a friend's
// later check-in can be added to them instead of forcing a rescan, so they
// are not pooled. Everything else sum reads or builds is: it releases each
// region output once its aggregates are folded — only the output's work
// may be read after that — and its own merge scratch once the candidates
// are built.
func (e *Engine) sum(plan *queryPlan, stats *obs.QueryStats) ([]poiAgg, cluster.CoprocessorWork) {
	var work cluster.CoprocessorWork
	s := takeScratch()
	merged := s.aggs
	var wire int64
	for _, out := range plan.outputs {
		work.Friends += out.work.Friends
		work.RowsScanned += out.work.RowsScanned
		work.VisitsMatched += out.work.VisitsMatched
		work.CandidatePOIs += out.work.CandidatePOIs
		for i := range out.aggs {
			a := &out.aggs[i]
			wire += a.wire
			e := s.entry(a.id)
			if e.slot == 0 {
				merged = append(merged, *a)
				e.slot = int32(len(merged))
				continue
			}
			cur := &merged[e.slot-1]
			cur.gradeUnits += a.gradeUnits
			cur.visits += a.visits
		}
		out.release()
	}
	stats.AddBytes(wire)
	slices.SortFunc(merged, func(a, b regionAgg) int { return cmp.Compare(a.id, b.id) })
	cands := make([]poiAgg, len(merged))
	// owned holds the documents of normalized rows, which name no shared
	// version; rank joins the rest of each from the POI repository. It is
	// sized to the candidates left when the first such row comes, so it
	// never grows and its elements never move.
	var owned []model.POI
	var v model.VisitView
	for i := range merged {
		a := &merged[i]
		// The payload parsed when its region kept it, and the store never
		// rewrites bytes it delivered.
		if err := v.Parse(a.payload); err != nil {
			panic(fmt.Sprintf("query: a kept visit payload no longer parses: %v", err))
		}
		doc := v.SharedDoc()
		if doc == nil {
			if owned == nil {
				owned = make([]model.POI, 0, len(merged)-i)
			}
			owned = append(owned, v.POI())
			doc = &owned[len(owned)-1]
		}
		cands[i] = poiAgg{poi: doc, gradeUnits: a.gradeUnits, visits: a.visits}
	}
	s.release(merged)
	return cands, work
}

// rank turns merge candidates into the final ranking; it is the only code
// that does, for a fresh merge and for a cached one a check-in was folded
// into alike. Under the normalized schema the POI info is joined from the
// POI repository and the spatial/keyword predicates are applied
// post-join; a joined candidate points at a copy of the repository's
// document. With a positive Limit the ranking streams through a bounded
// heap (O(n log k)); otherwise it falls back to the exact full sort, which
// doubles as the oracle the property tests compare the heap against. The
// candidates are only read, and a document is copied only into the answer.
func (e *Engine) rank(spec *Spec, cands []poiAgg) []ScoredPOI {
	order := spec.orderOrDefault()
	var joinedDocs []model.POI
	if e.visits.Schema() == repos.SchemaNormalized {
		joinedDocs = make([]model.POI, 0, len(cands))
	}
	var topk boundedAggHeap
	var aggs []poiAgg
	if spec.Limit > 0 {
		topk = newBoundedAggHeap(order, spec.Limit, len(cands))
	}
	for i := range cands {
		a := &cands[i]
		if joinedDocs != nil {
			poi, ok := e.pois.Get(a.poi.ID)
			// Post-join residual predicates.
			if !ok || !spec.matchesPOI(&poi) {
				continue
			}
			joinedDocs = append(joinedDocs, poi)
			joined := *a
			joined.poi = &joinedDocs[len(joinedDocs)-1]
			a = &joined
		}
		if spec.Limit > 0 {
			topk.offer(a)
		} else {
			aggs = append(aggs, *a)
		}
	}
	if spec.Limit > 0 {
		aggs = topk.sorted()
	} else {
		sortAggs(aggs, order)
	}
	out := make([]ScoredPOI, len(aggs))
	for i := range aggs {
		a := &aggs[i]
		out[i] = ScoredPOI{POI: *a.poi, Score: model.MeanGrade(a.gradeUnits, a.visits), Visits: a.visits}
	}
	return out
}

// Trending answers a trending-events query: the hottest places within the
// window. With friends it runs the personalized coprocessor path ordered
// by hotness ("the three hottest places visited by my x specific friends
// the last y hours") over the full window; without friends it is answered
// from the materialized view's bucket aggregates, and an engine with no view
// installed refuses the query.
//
// The window is validated up front: an empty or inverted window returns
// ErrEmptyWindow instead of silently scanning full history. A friendless
// window reaching behind what the view retains — longer than its horizon,
// or starting before its coverage floor — is answered for the retained part
// only, and the narrowing the view reports is surfaced on the Result
// (WindowClamped/EffectiveFromMillis).
func (e *Engine) Trending(ctx context.Context, spec Spec) (*Result, error) {
	spec.OrderBy = ByHotness
	if err := validateTrendingWindow(&spec); err != nil {
		return nil, err
	}
	if len(spec.FriendIDs) > 0 {
		return e.Run(ctx, spec)
	}
	v := e.view.Load()
	if v == nil {
		return nil, errors.New("query: friendless trending needs a trending view (SetHotInView)")
	}
	return e.trendingFromView(ctx, v, spec)
}
