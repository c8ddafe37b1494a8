package query

import (
	"fmt"

	"modissense/internal/jsonwire"
	"modissense/internal/model"
	"modissense/internal/obs"
)

// The wire form of an answer. Search and trending answers are the
// interactive tier's whole output, and on a cached search encoding/json's
// reflective encode (server) and decode (typed client) cost more than the
// query. AppendJSON and DecodeJSON are one hand-written codec for both ends,
// built on the shared scanner and writer of internal/jsonwire: AppendJSON
// produces json.Marshal's bytes, and DecodeJSON accepts exactly the
// documents json.Unmarshal accepts and leaves the same value behind.
// json.Marshal / json.Unmarshal stay the reference (FuzzResultJSON holds the
// two to it).

// AppendJSON appends the JSON encoding of r to dst — byte for byte what
// json.Marshal(r) returns — and returns the extended buffer. A NaN or
// infinite float is a *json.UnsupportedValueError, as it is for json.Marshal;
// dst is then returned unextended.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonwire.Writer{B: dst}
	w.Raw(`{"pois":`)
	if r.POIs == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i := range r.POIs {
			if i > 0 {
				w.Raw(",")
			}
			appendScored(&w, &r.POIs[i])
		}
		w.Raw("]")
	}
	w.Raw(`,"latency_seconds":`)
	w.Float(r.LatencySeconds)
	w.Raw(`,"exec":`)
	appendSnapshot(&w, &r.Exec)
	w.Raw(`,"degraded":`)
	w.Bool(r.Degraded)
	if r.Cached {
		w.Raw(`,"cached":true`)
	}
	if len(r.MissingRegions) > 0 {
		w.Raw(`,"missing_regions":[`)
		for i, id := range r.MissingRegions {
			if i > 0 {
				w.Raw(",")
			}
			w.Int(int64(id))
		}
		w.Raw("]")
	}
	if r.WindowClamped {
		w.Raw(`,"window_clamped":true`)
	}
	if r.FailoverInProgress {
		w.Raw(`,"failover_in_progress":true`)
	}
	if r.EffectiveFromMillis != 0 {
		w.Raw(`,"effective_from_millis":`)
		w.Int(r.EffectiveFromMillis)
	}
	w.Raw("}")
	if w.Err != nil {
		return dst, w.Err
	}
	return w.B, nil
}

func appendScored(w *jsonwire.Writer, sp *ScoredPOI) {
	p := &sp.POI
	w.Raw(`{"poi":{"id":`)
	w.Int(p.ID)
	w.Raw(`,"name":`)
	w.String(p.Name)
	w.Raw(`,"lat":`)
	w.Float(p.Lat)
	w.Raw(`,"lon":`)
	w.Float(p.Lon)
	w.Raw(`,"keywords":`)
	if p.Keywords == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i, k := range p.Keywords {
			if i > 0 {
				w.Raw(",")
			}
			w.String(k)
		}
		w.Raw("]")
	}
	w.Raw(`,"hotness":`)
	w.Float(p.Hotness)
	w.Raw(`,"interest":`)
	w.Float(p.Interest)
	w.Raw(`},"score":`)
	w.Float(sp.Score)
	w.Raw(`,"visits":`)
	w.Int(int64(sp.Visits))
	w.Raw("}")
}

func appendSnapshot(w *jsonwire.Writer, s *obs.QuerySnapshot) {
	w.Raw(`{"tasks":`)
	w.Int(s.Tasks)
	w.Raw(`,"goroutines":`)
	w.Int(s.Goroutines)
	w.Raw(`,"rows_scanned":`)
	w.Int(s.RowsScanned)
	w.Raw(`,"bytes_merged":`)
	w.Int(s.BytesMerged)
	w.Raw(`,"wall_seconds":`)
	w.Float(s.WallSeconds)
	w.Raw(`,"retries":`)
	w.Int(s.Retries)
	w.Raw(`,"hedges":`)
	w.Int(s.Hedges)
	w.Raw(`,"replica_reads":`)
	w.Int(s.ReplicaReads)
	w.Raw(`,"cancels":`)
	w.Int(s.Cancels)
	w.Raw(`,"hedge_cancels":`)
	w.Int(s.HedgeCancels)
	w.Raw(`,"blocks_decoded":`)
	w.Int(s.BlocksDecoded)
	w.Raw(`,"blocks_skipped":`)
	w.Int(s.BlocksSkipped)
	w.Raw("}")
}

// DecodeJSON decodes a JSON answer into r in one pass, without reflection:
// it accepts exactly the documents json.Unmarshal(data, r) accepts and leaves
// r as json.Unmarshal would (for a zero r: a reflect.DeepEqual value). So it
// matches object keys exactly, then case-insensitively; validates and skips
// unknown members; lets null leave strings, numbers, bools and objects alone
// and set slices to nil; decodes a repeated member into what is already
// there (slice elements reused, then the slice truncated; [] is an empty,
// non-nil slice); turns invalid UTF-8 and lone surrogates into U+FFFD; parses
// numbers with strconv (a fraction or exponent in an integer field is an
// error, as is any overflow); refuses nesting deeper than 10 000; and refuses
// anything but whitespace after the value.
//
// The decoded strings never alias data: the whole document is copied into
// one string whose substrings back every string that needed no unescaping,
// so the caller may reuse data as soon as DecodeJSON returns.
func (r *Result) DecodeJSON(data []byte) error {
	d := decoder{Decoder: jsonwire.NewDecoder(data)}
	d.Space()
	err := d.result(r)
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return fmt.Errorf("query: invalid JSON answer: %w", err)
	}
	return nil
}

// poisHint is the capacity a fresh POI list starts with: the API's default
// limit, so a default answer decodes into one allocation.
const poisHint = 10

// decoder is one DecodeJSON pass: the shared scanner plus the arena fresh
// keyword lists are carved from (full slice expressions, so a caller's
// append never reaches a neighbour).
type decoder struct {
	jsonwire.Decoder
	kw []string
}

func (d *decoder) result(r *Result) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(func(key string) error { return d.resultMember(r, key) })
	}
	return d.Mismatch("query.Result")
}

var resultKeys = []string{"pois", "latency_seconds", "exec", "degraded", "cached",
	"missing_regions", "window_clamped", "failover_in_progress", "effective_from_millis"}

func (d *decoder) resultMember(r *Result, key string) error {
	switch key {
	case "pois":
		return jsonwire.List(&d.Decoder, &r.POIs, "[]query.ScoredPOI", poisHint, d.scored)
	case "latency_seconds":
		return d.Float(&r.LatencySeconds)
	case "exec":
		return d.snapshot(&r.Exec)
	case "degraded":
		return d.Bool(&r.Degraded)
	case "cached":
		return d.Bool(&r.Cached)
	case "missing_regions":
		return jsonwire.List(&d.Decoder, &r.MissingRegions, "[]int", 0, d.Int)
	case "window_clamped":
		return d.Bool(&r.WindowClamped)
	case "failover_in_progress":
		return d.Bool(&r.FailoverInProgress)
	case "effective_from_millis":
		return d.Int64(&r.EffectiveFromMillis)
	}
	if k := jsonwire.FoldKey(key, resultKeys); k != "" {
		return d.resultMember(r, k)
	}
	return d.Skip()
}

var scoredKeys = []string{"poi", "score", "visits"}

func (d *decoder) scored(sp *ScoredPOI) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(func(key string) error { return d.scoredMember(sp, key) })
	}
	return d.Mismatch("query.ScoredPOI")
}

func (d *decoder) scoredMember(sp *ScoredPOI, key string) error {
	switch key {
	case "poi":
		return d.poi(&sp.POI)
	case "score":
		return d.Float(&sp.Score)
	case "visits":
		return d.Int(&sp.Visits)
	}
	if k := jsonwire.FoldKey(key, scoredKeys); k != "" {
		return d.scoredMember(sp, k)
	}
	return d.Skip()
}

var poiKeys = []string{"id", "name", "lat", "lon", "keywords", "hotness", "interest"}

func (d *decoder) poi(p *model.POI) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(func(key string) error { return d.poiMember(p, key) })
	}
	return d.Mismatch("model.POI")
}

func (d *decoder) poiMember(p *model.POI, key string) error {
	switch key {
	case "id":
		return d.Int64(&p.ID)
	case "name":
		return d.String(&p.Name)
	case "lat":
		return d.Float(&p.Lat)
	case "lon":
		return d.Float(&p.Lon)
	case "keywords":
		return d.keywords(&p.Keywords)
	case "hotness":
		return d.Float(&p.Hotness)
	case "interest":
		return d.Float(&p.Interest)
	}
	if k := jsonwire.FoldKey(key, poiKeys); k != "" {
		return d.poiMember(p, k)
	}
	return d.Skip()
}

// keywords decodes a string list. A list decoded into nothing (the common
// case) is carved from the decoder's arena rather than given a slice of its
// own.
func (d *decoder) keywords(p *[]string) error {
	switch d.Lookahead() {
	case 'n':
		*p = nil
		return d.Literal("null")
	case '[':
	default:
		return d.Mismatch("[]string")
	}
	if s := *p; cap(s) > 0 {
		n, err := d.Array(func(i int) error {
			s = jsonwire.Slot(s, i)
			return d.String(&s[i])
		})
		if err != nil {
			return err
		}
		*p = jsonwire.Truncate(s, n)
		return nil
	}
	start := len(d.kw)
	n, err := d.Array(func(int) error {
		if cap(d.kw) == 0 {
			d.kw = make([]string, 0, 4*poisHint)
		}
		d.kw = append(d.kw, "")
		return d.String(&d.kw[len(d.kw)-1])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		*p = []string{}
	} else {
		*p = d.kw[start:len(d.kw):len(d.kw)]
	}
	return nil
}

var snapshotKeys = []string{"tasks", "goroutines", "rows_scanned", "bytes_merged", "wall_seconds",
	"retries", "hedges", "replica_reads", "cancels", "hedge_cancels", "blocks_decoded", "blocks_skipped"}

func (d *decoder) snapshot(s *obs.QuerySnapshot) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(func(key string) error { return d.snapshotMember(s, key) })
	}
	return d.Mismatch("obs.QuerySnapshot")
}

func (d *decoder) snapshotMember(s *obs.QuerySnapshot, key string) error {
	switch key {
	case "tasks":
		return d.Int64(&s.Tasks)
	case "goroutines":
		return d.Int64(&s.Goroutines)
	case "rows_scanned":
		return d.Int64(&s.RowsScanned)
	case "bytes_merged":
		return d.Int64(&s.BytesMerged)
	case "wall_seconds":
		return d.Float(&s.WallSeconds)
	case "retries":
		return d.Int64(&s.Retries)
	case "hedges":
		return d.Int64(&s.Hedges)
	case "replica_reads":
		return d.Int64(&s.ReplicaReads)
	case "cancels":
		return d.Int64(&s.Cancels)
	case "hedge_cancels":
		return d.Int64(&s.HedgeCancels)
	case "blocks_decoded":
		return d.Int64(&s.BlocksDecoded)
	case "blocks_skipped":
		return d.Int64(&s.BlocksSkipped)
	}
	if k := jsonwire.FoldKey(key, snapshotKeys); k != "" {
		return d.snapshotMember(s, k)
	}
	return d.Skip()
}
