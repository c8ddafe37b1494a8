package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"modissense/internal/jsonwire"
)

// The search and check-in bodies are the two requests on the hot path, and
// encoding/json's reflective decode of a 50-item check-in batch costs more
// than the rest of the handler around the store write. decodeRequest reads
// either body into a pooled buffer and decodes it by hand (internal/jsonwire)
// into exactly what decodeBody leaves: the set of accepted bodies and the
// decoded value are json.Decoder.Decode's with DisallowUnknownFields. That
// includes its stream rules — the bytes after the first value are never
// read, so a complete object followed by anything is accepted; null is all
// defaults; an empty body is EOF.
//
// The decoded strings are substrings of one copy of the body, so they never
// alias the pooled buffer. The few that outlive the request are copied out
// of it (detach), or one retained string would keep the whole body alive.
//
// A body the hand decoder refuses is decoded again by decodeBody's
// reference, whose outcome stands: every 400 carries encoding/json's message
// (it names the Go types, so searchJSON, checkinsRequest and CheckinPush keep
// their names), and the reference runs only on the error path.

// requestBody is a request type with a hand decoder of a whole body.
type requestBody interface {
	decode(body []byte) error
}

// decodeRequest decodes the body of r into v, as decodeBody would.
func decodeRequest[T any, P interface {
	*T
	requestBody
}](r *http.Request, v P) error {
	bp := bodyBufs.Get().(*[]byte)
	defer releaseBody(bp)
	buf, readErr := jsonwire.ReadBody(r.Body, (*bp)[:0], r.ContentLength, maxPooledBody)
	*bp = buf
	if readErr == nil {
		if v.decode(buf) == nil {
			return nil
		}
		var zero T
		*v = zero
	}
	// The reference sees what it would have read off the body: the bytes
	// that arrived, then the read error if there was one.
	var src io.Reader = bytes.NewReader(buf)
	if readErr != nil {
		src = io.MultiReader(src, failingReader{readErr})
	}
	return decodeJSON(src, v)
}

// failingReader is a reader whose every read fails with err.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// errUnknownField refuses a member the request type does not declare, as
// DisallowUnknownFields does.
var errUnknownField = errors.New("core: unknown field")

// friendWidth and checkinWidth size a fresh friend or check-in list from the
// bytes left in the body: a friend id below 1000 with its comma, and a
// check-in carrying just its two required members. A typical list then takes
// one allocation; a denser one grows as encoding/json's would.
const (
	friendWidth  = 4
	checkinWidth = 32
)

var searchKeys = []string{"token", "min_lat", "min_lon", "max_lat", "max_lon", "keyword", "friends",
	"from", "to", "order_by", "limit"}

func (s *searchJSON) decode(body []byte) error {
	d := jsonwire.NewDecoder(body)
	if err := d.Stream(func(key string) error { return s.member(&d, key) }); err != nil {
		return err
	}
	// A cached ranking keeps its query's keyword and order.
	s.Keyword, s.OrderBy = strings.Clone(s.Keyword), strings.Clone(s.OrderBy)
	return nil
}

func (s *searchJSON) member(d *jsonwire.Decoder, key string) error {
	switch key {
	case "token":
		return d.String(&s.Token)
	case "min_lat":
		return d.Float(&s.MinLat)
	case "min_lon":
		return d.Float(&s.MinLon)
	case "max_lat":
		return d.Float(&s.MaxLat)
	case "max_lon":
		return d.Float(&s.MaxLon)
	case "keyword":
		return d.String(&s.Keyword)
	case "friends":
		return jsonwire.List(d, &s.Friends, "[]int64", d.Remaining()/friendWidth, d.Int64)
	case "from":
		return d.String(&s.From)
	case "to":
		return d.String(&s.To)
	case "order_by":
		return d.String(&s.OrderBy)
	case "limit":
		return d.Int(&s.Limit)
	}
	if k := jsonwire.FoldKey(key, searchKeys); k != "" {
		return s.member(d, k)
	}
	return errUnknownField
}

var checkinsKeys = []string{"token", "checkins"}

func (c *checkinsRequest) decode(body []byte) error {
	d := jsonwire.NewDecoder(body)
	if err := d.Stream(func(key string) error { return c.member(&d, key) }); err != nil {
		return err
	}
	// A stored visit and a subscriber's queued event keep the check-in's
	// network. A run of equal networks (a batch is usually one user's, from
	// one network) shares one copy.
	var from, to string
	for i := range c.Checkins {
		it := &c.Checkins[i]
		if it.Network != from {
			from, to = it.Network, strings.Clone(it.Network)
		}
		it.Network = to
	}
	return nil
}

func (c *checkinsRequest) member(d *jsonwire.Decoder, key string) error {
	switch key {
	case "token":
		return d.String(&c.Token)
	case "checkins":
		return jsonwire.List(d, &c.Checkins, "[]core.CheckinPush", d.Remaining()/checkinWidth,
			func(it *CheckinPush) error { return it.decodeItem(d) })
	}
	if k := jsonwire.FoldKey(key, checkinsKeys); k != "" {
		return c.member(d, k)
	}
	return errUnknownField
}

var checkinKeys = []string{"poi_id", "time", "grade", "network"}

func (it *CheckinPush) decodeItem(d *jsonwire.Decoder) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(func(key string) error { return it.member(d, key) })
	}
	return d.Mismatch("core.CheckinPush")
}

func (it *CheckinPush) member(d *jsonwire.Decoder, key string) error {
	switch key {
	case "poi_id":
		return d.Int64(&it.POIID)
	case "time":
		return d.Int64(&it.Time)
	case "grade":
		return d.Float(&it.Grade)
	case "network":
		return d.String(&it.Network)
	}
	if k := jsonwire.FoldKey(key, checkinKeys); k != "" {
		return it.member(d, k)
	}
	return errUnknownField
}

// decodeJSON is the reference request decode: encoding/json, unknown fields
// refused.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("core: invalid request body: %w", err)
	}
	return nil
}
