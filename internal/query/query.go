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
	"container/heap"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
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
	Exec exec.Snapshot `json:"exec"`
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

// poiAgg is one POI's aggregate: partial inside a region, summed over the
// regions as a merge candidate.
type poiAgg struct {
	poi      model.POI
	gradeSum float64
	visits   int
	// inexact marks a sum that took a fractional grade. Floating-point
	// addition of whole grades is exact in any order; with a fractional one
	// the sum depends on the order of the rows, so only a scan reproduces it.
	inexact bool
}

// fractional reports whether a grade is not a whole number.
func fractional(grade float64) bool { return grade != float64(int64(grade)) }

// wireBytes estimates the serialized size of one partial aggregate as it
// would travel region → web server (id, sums, name, keywords).
func (a *poiAgg) wireBytes() int64 {
	n := 48 + len(a.poi.Name)
	for _, k := range a.poi.Keywords {
		n += len(k) + 3
	}
	return int64(n)
}

// regionOutput is what one coprocessor execution returns.
type regionOutput struct {
	aggs []poiAgg
	work cluster.CoprocessorWork
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
// read each local friend's visit rows, filter, aggregate per POI and sort.
// Every local friend's row range goes into one multi-range scan per region
// (kvstore.MultiScanCtx): one store lock, one iterator set, segment pruning.
// The scan is late-materializing: each row is filtered and folded into its
// POI's sums from an allocation-free view of the encoded payload, and a POI
// document is decoded only for the first row of each POI in the region
// (regionAggregator).
type visitsCoprocessor struct {
	spec    *Spec
	schema  repos.VisitSchema
	friends []int64 // sorted, deduplicated
}

// runRegion is the region function kvstore.ExecRegions fans out: the region
// scan honors cancellation at row granularity, and the work it did is noted
// on the span of the read attempt it runs under.
func (cp *visitsCoprocessor) runRegion(ctx context.Context, r *kvstore.Region) (*regionOutput, error) {
	regionStart := time.Now()
	defer func() { mCoprocLatency.ObserveDuration(time.Since(regionStart)) }()
	agg := newRegionAggregator(cp)
	// Friends are sorted and distinct, so the per-friend ranges are sorted
	// and non-overlapping — exactly the multi-range contract.
	ranges := make([]kvstore.ScanRange, 0, len(cp.friends))
	for _, friend := range cp.friends {
		if !r.Contains(repos.UserKeyPrefix(friend)) {
			continue
		}
		agg.out.work.Friends++
		start, stop := repos.VisitScanBounds(friend, cp.spec.FromMillis, cp.spec.ToMillis)
		ranges = append(ranges, kvstore.ScanRange{Start: start, Stop: stop})
	}
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
// partial aggregates. Predicates run on every row — two visits to one POI
// can carry different replicated documents, so a verdict cannot be cached
// per POI — but the aggregate keeps the document of the first matching row
// only, so nothing else of a row is ever decoded.
type regionAggregator struct {
	cp  *visitsCoprocessor
	out *regionOutput
	// slot maps a POI id to its aggregate's index in out.aggs.
	slot map[int64]int
}

func newRegionAggregator(cp *visitsCoprocessor) *regionAggregator {
	return &regionAggregator{cp: cp, out: &regionOutput{}, slot: map[int64]int{}}
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
	// Under the replicated schema every predicate evaluates right here; the
	// normalized schema can only filter by time and must ship every
	// aggregate to the web server for the join.
	filter := g.cp.schema == repos.SchemaReplicated
	var v model.VisitView
	if v.Parse(raw) == nil && (!filter || g.cp.spec.matchesView(&v)) {
		if a := g.add(v.POIID, v.Grade); a.visits == 1 {
			a.poi = v.POI()
		}
	}
	return true
}

// add folds one matched visit into its POI's aggregate and returns it; a
// visit count of one marks the POI's first row in the region, the one whose
// document the caller keeps.
func (g *regionAggregator) add(poiID int64, grade float64) *poiAgg {
	g.out.work.VisitsMatched++
	i, seen := g.slot[poiID]
	if !seen {
		i = len(g.out.aggs)
		g.slot[poiID] = i
		g.out.aggs = append(g.out.aggs, poiAgg{})
	}
	a := &g.out.aggs[i]
	a.gradeSum += grade
	a.visits++
	if fractional(grade) {
		a.inexact = true
	}
	return a
}

// finish sorts the aggregates by the query criterion (the coprocessor
// "sorts the candidate POIs according to the aggregated scores"), applies
// the optional region top-k cut and returns the region's output.
func (g *regionAggregator) finish() *regionOutput {
	out := g.out
	sortAggs(out.aggs, g.cp.spec.orderOrDefault())
	if k := g.cp.spec.RegionTopK; k > 0 && len(out.aggs) > k {
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
func (s *Spec) matchesView(v *model.VisitView) bool {
	return s.inBBox(v.Lat, v.Lon) && (s.Keyword == "" || v.HasKeyword(s.Keyword))
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

// aggLess is the strict total order of the final ranking: score (or visit
// count) descending, POI id ascending as the tiebreak. Both the exact sort
// and the streaming top-k heap rank through this one function, which is
// what makes the two merge paths return identical results.
func aggLess(order OrderBy, a, b *poiAgg) bool {
	switch order {
	case ByHotness:
		if a.visits != b.visits {
			return a.visits > b.visits
		}
	default: // ByInterest
		sa := a.gradeSum / float64(a.visits)
		sb := b.gradeSum / float64(b.visits)
		if sa != sb {
			return sa > sb
		}
	}
	return a.poi.ID < b.poi.ID
}

func sortAggs(aggs []poiAgg, order OrderBy) {
	sort.Slice(aggs, func(i, j int) bool {
		return aggLess(order, &aggs[i], &aggs[j])
	})
}

// boundedAggHeap keeps the k best aggregates seen so far, worst at the
// root, so the streaming merge is O(n log k) instead of sorting everything.
type boundedAggHeap struct {
	items []poiAgg
	order OrderBy
	k     int
}

func (h *boundedAggHeap) Len() int { return len(h.items) }
func (h *boundedAggHeap) Less(i, j int) bool {
	// Inverted: the root is the worst of the kept aggregates.
	return aggLess(h.order, &h.items[j], &h.items[i])
}
func (h *boundedAggHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *boundedAggHeap) Push(x interface{}) { h.items = append(h.items, x.(poiAgg)) }
func (h *boundedAggHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

// offer considers one aggregate for the top k, copying it only if it is kept.
func (h *boundedAggHeap) offer(a *poiAgg) {
	if len(h.items) < h.k {
		heap.Push(h, *a)
		return
	}
	if aggLess(h.order, a, &h.items[0]) {
		h.items[0] = *a
		heap.Fix(h, 0)
		mTopKEvictions.Inc()
	}
}

// sorted drains the heap into best-first order (destructive).
func (h *boundedAggHeap) sorted() []poiAgg {
	out := make([]poiAgg, len(h.items))
	for i := len(h.items) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(poiAgg)
	}
	return out
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
		cp := &visitsCoprocessor{spec: &spec, schema: e.visits.Schema(), friends: friends}
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
			totalCandidates := 0
			for _, out := range plan.outputs {
				totalCandidates += len(out.aggs)
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
// candidate keeps the document of the first region that reported it. The
// candidates are the query's merge state: rank derives the answer from them,
// and a cached entry keeps them so a friend's later check-in can be added to
// them instead of forcing a rescan.
func (e *Engine) sum(plan *queryPlan, stats *exec.Stats) ([]poiAgg, cluster.CoprocessorWork) {
	var work cluster.CoprocessorWork
	// The largest region's aggregates are a lower bound on the candidates.
	most := 0
	for _, out := range plan.outputs {
		most = max(most, len(out.aggs))
	}
	cands := make([]poiAgg, 0, most)
	slot := make(map[int64]int32, most)
	for _, out := range plan.outputs {
		work.Friends += out.work.Friends
		work.RowsScanned += out.work.RowsScanned
		work.VisitsMatched += out.work.VisitsMatched
		work.CandidatePOIs += out.work.CandidatePOIs
		for i := range out.aggs {
			a := &out.aggs[i]
			stats.AddBytes(a.wireBytes())
			j, seen := slot[a.poi.ID]
			if !seen {
				slot[a.poi.ID] = int32(len(cands))
				cands = append(cands, *a)
				continue
			}
			cur := &cands[j]
			cur.gradeSum += a.gradeSum
			cur.visits += a.visits
			cur.inexact = cur.inexact || a.inexact
		}
	}
	slices.SortFunc(cands, func(a, b poiAgg) int { return cmp.Compare(a.poi.ID, b.poi.ID) })
	return cands, work
}

// rank turns merge candidates into the final ranking; it is the only code
// that does, for a fresh merge and for a cached one a check-in was folded
// into alike. Under the normalized schema the POI info is joined from the
// POI repository and the spatial/keyword predicates are applied
// post-join. With a positive Limit the ranking streams through a bounded
// heap (O(n log k)); otherwise it falls back to the exact full sort, which
// doubles as the oracle the property tests compare the heap against. The
// candidates are only read.
func (e *Engine) rank(spec *Spec, cands []poiAgg) []ScoredPOI {
	order := spec.orderOrDefault()
	normalized := e.visits.Schema() == repos.SchemaNormalized
	var topk *boundedAggHeap
	var aggs []poiAgg
	if spec.Limit > 0 {
		topk = &boundedAggHeap{order: order, k: spec.Limit}
	}
	for i := range cands {
		a := &cands[i]
		if normalized {
			poi, ok := e.pois.Get(a.poi.ID)
			// Post-join residual predicates.
			if !ok || !spec.matchesPOI(&poi) {
				continue
			}
			joined := *a
			joined.poi = poi
			a = &joined
		}
		if topk != nil {
			topk.offer(a)
		} else {
			aggs = append(aggs, *a)
		}
	}
	if topk != nil {
		aggs = topk.sorted()
	} else {
		sortAggs(aggs, order)
	}
	out := make([]ScoredPOI, len(aggs))
	for i, a := range aggs {
		out[i] = ScoredPOI{POI: a.poi, Score: a.gradeSum / float64(a.visits), Visits: a.visits}
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
