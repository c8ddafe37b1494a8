package query

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"modissense/internal/cluster"
	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/repos"
)

// ErrEmptyWindow rejects a trending query whose time window is empty or
// inverted. Before this guard such a query silently fell through to an
// unbounded scan (an open-ended window reads full visit history); the API
// layer maps it onto the uniform 400 envelope.
var ErrEmptyWindow = errors.New("query: empty trending time window")

// SetHotInView installs (or, with nil, removes) the materialized trending
// view, the one source of friendless trending answers: windows reaching
// behind what it retains are clamped (personalized queries keep their full
// window on the scan path), and without a view a friendless query is an
// error. Install it at wiring time, attached to the same visit stream the
// engine queries.
func (e *Engine) SetHotInView(v *matview.HotInView) { e.view.Store(v) }

// SetResultCache installs (or, with nil, removes) the personalized result
// cache. With a cache installed, Run/RunConcurrent consult it before
// fanning out coprocessors and memoize complete (non-degraded,
// primary-served) results; the cache's Announce / Apply / Abandon must be
// wired around the visit store's table write so friends' check-ins are
// folded into the entries they affect.
func (e *Engine) SetResultCache(c *matview.ResultCache) {
	if c == nil {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(c)
}

// cachedRanking is the value memoized per cache entry: not the answer but
// the merge state it was derived from — the spec's predicates and every
// candidate's sums, as Engine.sum left them — plus the answer, derived by
// Engine.rank and re-derived on the first hit after a friend's check-in was
// added to the sums. Latency and execution stats are per-request, so a hit
// gets a fresh Result around the shared ranking slice, which is never
// written once published. The cache serializes ranking and Patch (see
// matview.Value).
type cachedRanking struct {
	e *Engine
	// spec holds the predicates: the window, a private copy of the box, the
	// keyword, order, limit and region top-k. Its friend list is the entry's.
	spec Spec
	// cands are the merge candidates, sorted by POI id, in one allocation.
	cands []poiAgg
	pois  []ScoredPOI
	// dirty marks cands changed since pois was derived.
	dirty bool
}

func newCachedRanking(e *Engine, spec *Spec, cands []poiAgg, pois []ScoredPOI) *cachedRanking {
	// Retain no more than an eighth of slack from the append that built them.
	if cap(cands)-len(cands) > len(cands)/8 {
		cands = slices.Clone(cands)
	}
	c := &cachedRanking{e: e, spec: *spec, cands: cands, pois: pois}
	c.spec.FriendIDs = nil
	if spec.BBox != nil {
		box := *spec.BBox
		c.spec.BBox = &box
	}
	return c
}

// ranking returns the entry's answer and how many items it was merged from
// on this call: every candidate if the answer had to be re-derived, just the
// answer's own length if it was current.
func (c *cachedRanking) ranking() (pois []ScoredPOI, mergedFrom int) {
	if !c.dirty {
		return c.pois, len(c.pois)
	}
	c.pois = c.e.rank(&c.spec, c.cands)
	c.dirty = false
	return c.pois, len(c.cands)
}

const (
	aggBytes    = int64(unsafe.Sizeof(poiAgg{}))
	scoredBytes = int64(unsafe.Sizeof(ScoredPOI{}))
)

// docBytes counts what a candidate's document retains beyond the struct:
// the name, the keyword slice's string headers and the keywords, each a
// small allocation of its own rounded up to the allocator's 8-byte grain.
func docBytes(p *model.POI) int64 {
	grain := func(n int) int64 { return int64(n+7) &^ 7 }
	n := grain(len(p.Name)) + int64(len(p.Keywords))*int64(unsafe.Sizeof(""))
	for _, k := range p.Keywords {
		n += grain(len(k))
	}
	return n
}

// retainedBytes counts the memory the entry retains, charged against the
// cache's byte budget: the candidate array at its capacity, the candidates'
// documents, and the ranking (whose documents are the candidates' or, under
// the normalized schema, the POI repository's).
func (c *cachedRanking) retainedBytes() int64 {
	n := int64(unsafe.Sizeof(*c)) + int64(cap(c.cands))*aggBytes + int64(len(c.pois))*scoredBytes
	if c.spec.BBox != nil {
		n += int64(unsafe.Sizeof(*c.spec.BBox))
	}
	for i := range c.cands {
		n += docBytes(&c.cands[i].poi)
	}
	return n
}

// storedDoc returns the POI document a scan would decode from the row a
// visit is stored as: the visit's own under the replicated schema (the codec
// decodes an empty keyword list as nil), the id alone under the normalized.
func storedDoc(schema repos.VisitSchema, p *model.POI) model.POI {
	if schema != repos.SchemaReplicated {
		return model.POI{ID: p.ID}
	}
	doc := *p
	if len(doc.Keywords) == 0 {
		doc.Keywords = nil
	}
	return doc
}

func sameDoc(a, b *model.POI) bool {
	return a.ID == b.ID && a.Name == b.Name && a.Lat == b.Lat && a.Lon == b.Lon &&
		a.Hotness == b.Hotness && a.Interest == b.Interest && slices.Equal(a.Keywords, b.Keywords)
}

// Patch implements matview.Value: it folds one friend's committed visits
// into the candidates exactly as the coprocessor would have folded their
// rows — the time window, then, under the replicated schema, the spec's
// predicates on the visit's document (the normalized schema filters after
// the join, in rank) — adding (1, grade) to the POI's candidate or creating
// it with the visit's document. A visit the filters reject leaves the entry
// as it was. The entry stops being exact, and is given up, when a scan could
// produce something the fold cannot know:
//
//   - the candidate's document differs from the visit's (a scan keeps the
//     document of the first row in key order, and POST /admin/hotin rewrites
//     the hotness and interest new rows carry);
//   - the spec cuts each region's aggregates at RegionTopK, so the
//     candidates are truncated partials, not sums;
//   - the grade, or one already in the candidate's sum, is fractional, so
//     the floating-point sum depends on the order of the rows.
func (c *cachedRanking) Patch(visits []model.Visit) (folded int, grew int64, exact bool) {
	schema := c.e.visits.Schema()
	for i := range visits {
		v := &visits[i]
		if v.Time < c.spec.FromMillis || v.Time > c.spec.ToMillis {
			continue
		}
		doc := storedDoc(schema, &v.POI)
		if schema == repos.SchemaReplicated && !c.spec.matchesPOI(&doc) {
			continue
		}
		if c.spec.RegionTopK > 0 || fractional(v.Grade) {
			return folded, grew, false
		}
		j, found := slices.BinarySearchFunc(c.cands, doc.ID, func(a poiAgg, id int64) int { return cmp.Compare(a.poi.ID, id) })
		if found {
			a := &c.cands[j]
			if a.inexact || !sameDoc(&a.poi, &doc) {
				return folded, grew, false
			}
			a.gradeSum += v.Grade
			a.visits++
		} else {
			before := cap(c.cands)
			c.cands = slices.Insert(c.cands, j, poiAgg{poi: doc, gradeSum: v.Grade, visits: 1})
			// The new candidate may lengthen the ranking by one.
			grew += int64(cap(c.cands)-before)*aggBytes + docBytes(&doc) + scoredBytes
		}
		folded++
		c.dirty = true
	}
	return folded, grew, true
}

// cacheKey renders the normalized query spec — every predicate plus the
// sorted, deduplicated friend list — as the result-cache key. Two requests
// that must return identical rankings map to the same key; anything that
// can change the answer is folded in.
func (e *Engine) cacheKey(spec *Spec, friends []int64) string {
	var b strings.Builder
	b.Grow(64 + len(friends)*8)
	b.WriteString(string(e.visits.Schema().String()))
	b.WriteByte('|')
	b.WriteString(string(spec.orderOrDefault()))
	b.WriteByte('|')
	if spec.BBox != nil {
		for _, f := range []float64{spec.BBox.MinLat, spec.BBox.MinLon, spec.BBox.MaxLat, spec.BBox.MaxLon} {
			b.WriteString(strconv.FormatFloat(f, 'x', -1, 64))
			b.WriteByte(',')
		}
	}
	b.WriteByte('|')
	b.WriteString(spec.Keyword)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(spec.FromMillis, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(spec.ToMillis, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(spec.Limit))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(spec.RegionTopK))
	b.WriteByte('|')
	for _, f := range friends {
		b.WriteString(strconv.FormatInt(f, 10))
		b.WriteByte(',')
	}
	return b.String()
}

// validateTrendingWindow rejects an empty or inverted trending window
// with ErrEmptyWindow (it used to silently scan full history).
func validateTrendingWindow(spec *Spec) error {
	if spec.ToMillis <= spec.FromMillis {
		return fmt.Errorf("%w: from %d, to %d", ErrEmptyWindow, spec.FromMillis, spec.ToMillis)
	}
	return nil
}

// trendingFromView answers a friendless trending query from the
// materialized view: sum the buckets covering the window, rank by visit
// volume, and charge the web server a parse plus a merge proportional to
// the candidate count — no region RPCs, no history scan.
//
// A window reaching behind what the view retains — the later of its
// coverage floor and the horizon counted back from the window's end — is
// narrowed to the retained part, and one lying wholly behind the floor
// collapses to the empty window at its end. The horizon is fixed, so that
// half is applied here; the floor moves with every expiry, so the view
// applies it under the lock hold it reads the buckets with and reports the
// start it served. The Result's WindowClamped/EffectiveFromMillis are set
// from that report, never from a separate look at the floor.
func (e *Engine) trendingFromView(ctx context.Context, v *matview.HotInView, spec Spec) (*Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	aggs, candidates, served := v.TopKFrom(matview.TopKSpec{
		BBox:       spec.BBox,
		Keyword:    spec.Keyword,
		FromMillis: max(spec.FromMillis, spec.ToMillis-v.HorizonMillis()),
		ToMillis:   spec.ToMillis,
		Limit:      spec.Limit,
	})
	matview.RecordViewRead()
	cost := e.clus.Config().Cost
	latency, err := e.clus.Simulate(func(s *cluster.Session) {
		web := s.PickWebServer()
		s.Submit(web, 0, cost.WebParse, func(parseDone float64) {
			s.Submit(web, parseDone, cost.MergeServiceTime(candidates, len(aggs)), nil)
		})
	})
	if err != nil {
		return nil, err
	}
	res := &Result{LatencySeconds: latency}
	if served > spec.FromMillis {
		res.WindowClamped = true
		res.EffectiveFromMillis = served
	}
	for _, a := range aggs {
		score := 0.0
		if a.Visits > 0 {
			score = a.GradeSum / float64(a.Visits)
		}
		res.POIs = append(res.POIs, ScoredPOI{POI: a.POI, Score: score, Visits: a.Visits})
	}
	return res, nil
}
