package main

import (
	"fmt"
	"sort"

	"modissense/client"
	"modissense/internal/model"
	"modissense/internal/query"
)

// The oracle is the harness's own record of every check-in the platform
// acknowledged, in acknowledgement order, and a brute-force top-k over it.
// It shares no code with the platform's read path beyond geo.Rect.Contains:
// no store, no codec, no view, no cache, no heap. A read that ran when n
// check-ins had been acknowledged must equal the brute-force answer over the
// first n records.

// ack is one acknowledged check-in, packed: a run records over a million.
type ack struct {
	time  int64
	user  int32
	poi   int16
	grade int8
}

type oracle struct {
	pois   []model.POI // by POI id
	acks   []ack
	byUser [][]int32 // user id → indices into acks, ascending
	sum    uint64
}

func newOracle(catalog []model.POI, users int) *oracle {
	o := &oracle{pois: make([]model.POI, len(catalog)+1), byUser: make([][]int32, users+1)}
	for _, p := range catalog {
		o.pois[p.ID] = p
	}
	return o
}

func (o *oracle) len() int         { return len(o.acks) }
func (o *oracle) checksum() uint64 { return o.sum }

// ackHash mixes one visit into a value whose sum over a set of visits does
// not depend on their order.
func ackHash(user, poi, timeMs int64, grade float64) uint64 {
	h := uint64(user)*0x9e3779b97f4a7c15 ^ uint64(poi)*0xc2b2ae3d27d4eb4f ^ uint64(timeMs)*0x165667b19e3779f9 ^ uint64(grade)
	h ^= h >> 29
	return h * 0xbf58476d1ce4e5b9
}

func (o *oracle) record(user int64, checkins []client.Checkin) {
	for _, c := range checkins {
		o.byUser[user] = append(o.byUser[user], int32(len(o.acks)))
		o.acks = append(o.acks, ack{time: c.Time, user: int32(user), poi: int16(c.POIID), grade: int8(c.Grade)})
		o.sum += ackHash(user, c.POIID, c.Time, c.Grade)
	}
}

// ranked is one line of a top-k answer, the part of it that is checked.
type ranked struct {
	poi    int64
	visits int
	score  float64
}

func rankedOf(pois []query.ScoredPOI) []ranked {
	out := make([]ranked, len(pois))
	for i, p := range pois {
		out[i] = ranked{poi: p.POI.ID, visits: p.Visits, score: p.Score}
	}
	return out
}

func (o *oracle) matches(t *template, poi int16) bool {
	p := &o.pois[poi]
	if t.box != nil && !t.box.Contains(p.Point()) {
		return false
	}
	if t.keyword == "" {
		return true
	}
	for _, k := range p.Keywords {
		if k == t.keyword {
			return true
		}
	}
	return false
}

type tally struct {
	visits   int
	gradeSum int
}

type tallies map[int16]*tally

func (t tallies) add(a ack) {
	tl := t[a.poi]
	if tl == nil {
		tl = &tally{}
		t[a.poi] = tl
	}
	tl.visits++
	tl.gradeSum += int(a.grade)
}

// rank orders the tallies the way query.aggLess does: visits (hotness) or
// mean grade (interest) descending, POI id ascending.
func rank(seen tallies, order string, limit int) []ranked {
	out := make([]ranked, 0, len(seen))
	for poi, t := range seen {
		out = append(out, ranked{poi: int64(poi), visits: t.visits, score: float64(t.gradeSum) / float64(t.visits)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if order == "hotness" {
			if a.visits != b.visits {
				return a.visits > b.visits
			}
		} else if a.score != b.score {
			return a.score > b.score
		}
		return a.poi < b.poi
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// search recomputes a personalized search over the first prefix records:
// the friends' visits from t0 on that pass the template's filter.
func (o *oracle) search(prefix int, friends []int64, t *template) []ranked {
	found := tallies{}
	seen := make(map[int64]bool, len(friends))
	for _, f := range friends {
		if seen[f] {
			continue
		}
		seen[f] = true
		for _, i := range o.byUser[f] {
			if int(i) >= prefix {
				break
			}
			a := o.acks[i]
			if a.time < t0.UnixMilli() || !o.matches(t, a.poi) {
				continue
			}
			found.add(a)
		}
	}
	return rank(found, t.order, topKLimit)
}

// trending recomputes a friendless trending query over the first prefix
// records: every visit in [fromMs, untilMs) inside the box.
func (o *oracle) trending(prefix int, t *template, fromMs, untilMs int64) []ranked {
	found := tallies{}
	for _, a := range o.acks[:prefix] {
		if a.time < fromMs || a.time >= untilMs || !o.matches(t, a.poi) {
			continue
		}
		found.add(a)
	}
	return rank(found, "hotness", topKLimit)
}

// verify checks one read's answer against the oracle.
func (o *oracle) verify(op *op, r *result) error {
	var want []ranked
	switch op.kind {
	case opSearch:
		want = o.search(r.acked, op.search.Friends, &op.tmpl)
	case opTrending:
		until := op.until.UnixMilli()
		want = o.trending(r.acked, &op.tmpl, until-int64(op.hours)*hourMs, until)
	default:
		return nil
	}
	if len(want) != len(r.pois) {
		return fmt.Errorf("%s returned %d POIs, the oracle %d", op.kind, len(r.pois), len(want))
	}
	for i := range want {
		if want[i] != r.pois[i] {
			return fmt.Errorf("%s rank %d: got %+v, the oracle says %+v", op.kind, i+1, r.pois[i], want[i])
		}
	}
	return nil
}
