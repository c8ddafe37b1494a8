package query

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"modissense/internal/matview"
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
// fanning out coprocessors and memoize complete (non-degraded) results;
// invalidation must be wired to the visit store hook so friend check-ins
// stale the entries they affect.
func (e *Engine) SetResultCache(c *matview.ResultCache) {
	if c == nil {
		e.cache.Store(nil)
		return
	}
	e.cache.Store(c)
}

// cachedPOIs is the value memoized per cache entry: just the ranked
// results. Latency and execution stats are per-request, so a hit gets a
// fresh Result around the shared (immutable) slice.
type cachedPOIs struct {
	pois []ScoredPOI
}

// retainedBytes estimates the memory the cached ranking retains, charged
// against the cache's byte budget.
func (c *cachedPOIs) retainedBytes() int64 {
	n := int64(24)
	for i := range c.pois {
		p := &c.pois[i]
		n += 96 + int64(len(p.POI.Name))
		for _, k := range p.POI.Keywords {
			n += int64(len(k)) + 16
		}
	}
	return n
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
	mQueriesRelational.Inc()
	cost := e.clus.Config().Cost
	var latency float64
	err := e.simulate(func(base float64, fail func(error)) error {
		web := e.clus.PickWebServer()
		_, err := web.Submit(base, cost.WebParse, func(parseDone float64) {
			_, err := web.Submit(parseDone, cost.MergeServiceTime(candidates, len(aggs)), func(done float64) {
				latency = done - base
			})
			if err != nil {
				fail(fmt.Errorf("query: schedule view merge: %w", err))
			}
		})
		return err
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
