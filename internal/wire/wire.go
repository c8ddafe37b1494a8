// Package wire declares the JSON bodies the typed client and the REST server
// share, once: the request bodies the client sends and the server decodes,
// the check-in batch's answer and the error envelope. The client's exported
// Checkin, CheckinError, BatchResult and Session and the server's
// CheckinPush and CheckinItemError are aliases of these types.
//
// The search and check-in bodies are the two requests on the hot path, and
// they carry a hand codec beside their declaration: AppendJSON appends
// json.Marshal's bytes, and DecodeJSON accepts exactly what json.Decoder
// with DisallowUnknownFields accepts off a whole body and leaves the same
// value (internal/jsonwire does the scanning). That includes the decoder's
// stream rules — the bytes after the first value are never read, so a
// complete object followed by anything is accepted; null is all defaults;
// an empty body is an error. Every other body goes through encoding/json.
//
// The decoded strings are substrings of one copy of the body, so they never
// alias the caller's buffer. The few that outlive a request are copied out
// of it (detach), or one retained string would keep the whole body alive.
package wire

import (
	"errors"
	"strings"

	"modissense/internal/jsonwire"
)

// ErrorEnvelope is the uniform error envelope of every endpoint:
//
//	{"error": {"code": "timeout", "message": "...", "requestId": "..."}}
//
// Code names the machine-readable failure class (a fixed enum — see
// API.md); RequestID echoes the X-Request-ID so the failing request's trace
// can be fetched.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the payload inside the envelope.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"requestId"`
}

// Page is the uniform list envelope: every paginated list endpoint answers
// {"items": [...], "next_cursor": "..."}, with next_cursor absent on the
// final page.
type Page[T any] struct {
	Items      []T    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// SignInRequest is the body of POST /signin.
type SignInRequest struct {
	Network     string `json:"network"`
	Credentials string `json:"credentials"`
}

// LinkRequest is the body of POST /link: one more network for the account
// the token signed in.
type LinkRequest struct {
	Token       string `json:"token"`
	Network     string `json:"network"`
	Credentials string `json:"credentials"`
}

// Session is the answer of a sign-in or link call.
type Session struct {
	UserID   int64    `json:"user_id"`
	Token    string   `json:"token"`
	Networks []string `json:"networks"`
}

// GPSRequest is the body of POST /gps. Fix is the platform's GPS fix type,
// a parameter so that this package depends on no domain package.
type GPSRequest[Fix any] struct {
	Token string `json:"token"`
	Fixes []Fix  `json:"fixes"`
}

// BlogRequest is the body of POST /blog/generate.
type BlogRequest struct {
	Token string `json:"token"`
	// Date is a YYYY-MM-DD day.
	Date string `json:"date"`
}

// WindowRequest is the body of POST /admin/collect and /admin/hotin: two
// RFC 3339 times.
type WindowRequest struct {
	Since string `json:"since"`
	Until string `json:"until"`
}

// EventsRequest is the body of POST /admin/events.
type EventsRequest struct {
	EpsMeters  float64 `json:"eps_meters"`
	MinPts     int     `json:"min_pts"`
	Partitions int     `json:"partitions"`
}

// SubscriptionRequest is the body of POST /subscriptions.
type SubscriptionRequest struct {
	Token    string   `json:"token"`
	MinLat   float64  `json:"min_lat"`
	MinLon   float64  `json:"min_lon"`
	MaxLat   float64  `json:"max_lat"`
	MaxLon   float64  `json:"max_lon"`
	Keywords []string `json:"keywords"`
	// TTLSeconds bounds the subscription lifetime (0 = server default,
	// clamped to the server maximum).
	TTLSeconds int `json:"ttl_seconds"`
}

// SearchRequest is the body of POST /search, a personalized search.
type SearchRequest struct {
	Token   string  `json:"token"`
	MinLat  float64 `json:"min_lat"`
	MinLon  float64 `json:"min_lon"`
	MaxLat  float64 `json:"max_lat"`
	MaxLon  float64 `json:"max_lon"`
	Keyword string  `json:"keyword"`
	Friends []int64 `json:"friends"`
	// From/To are RFC3339 timestamps; empty means open-ended.
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	OrderBy string `json:"order_by"`
	Limit   int    `json:"limit"`
}

// CheckinsRequest is the body of POST /checkins, the batched ingest form:
// one authenticated user pushing many check-ins in a single request. Its
// members are in the sorted order the client's body had when it was a
// map[string]interface{}.
type CheckinsRequest struct {
	Checkins []Checkin `json:"checkins"`
	Token    string    `json:"token"`
}

// Checkin is one check-in in a batched ingest push. A zero grade and an
// empty network are left out of the encoding; decoding reads them either
// way.
type Checkin struct {
	// POIID references the visited catalog POI.
	POIID int64 `json:"poi_id"`
	// Time is the check-in timestamp in milliseconds since epoch.
	Time int64 `json:"time"`
	// Grade is the optional sentiment grade on the 1–5 scale (0 = ungraded).
	Grade float64 `json:"grade,omitempty"`
	// Network names the social network the check-in came from.
	Network string `json:"network,omitempty"`
}

// CheckinError reports one rejected item of a batched check-in push.
type CheckinError struct {
	// Index is the item's position in the request batch.
	Index int `json:"index"`
	// Code is the envelope failure-class enum value for this item.
	Code string `json:"code"`
	// Message is the human-readable reason.
	Message string `json:"message"`
}

// BatchResult reports a batched check-in push: how many items were stored
// plus a per-item error list for the rejected ones (absent when every item
// landed).
type BatchResult struct {
	Stored int            `json:"stored"`
	Errors []CheckinError `json:"errors,omitempty"`
}

// AppendJSON appends json.Marshal(r)'s bytes to dst. A NaN or infinite
// coordinate is json.Marshal's *json.UnsupportedValueError.
func (r *SearchRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonwire.Writer{B: dst}
	w.Raw(`{"token":`)
	w.String(r.Token)
	w.Raw(`,"min_lat":`)
	w.Float(r.MinLat)
	w.Raw(`,"min_lon":`)
	w.Float(r.MinLon)
	w.Raw(`,"max_lat":`)
	w.Float(r.MaxLat)
	w.Raw(`,"max_lon":`)
	w.Float(r.MaxLon)
	w.Raw(`,"keyword":`)
	w.String(r.Keyword)
	w.Raw(`,"friends":`)
	if r.Friends == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i, id := range r.Friends {
			if i > 0 {
				w.Raw(",")
			}
			w.Int(id)
		}
		w.Raw("]")
	}
	if r.From != "" {
		w.Raw(`,"from":`)
		w.String(r.From)
	}
	if r.To != "" {
		w.Raw(`,"to":`)
		w.String(r.To)
	}
	w.Raw(`,"order_by":`)
	w.String(r.OrderBy)
	w.Raw(`,"limit":`)
	w.Int(int64(r.Limit))
	w.Raw("}")
	return w.B, w.Err
}

// AppendJSON appends json.Marshal(b)'s bytes to dst. A NaN or infinite
// grade is json.Marshal's *json.UnsupportedValueError.
func (b *CheckinsRequest) AppendJSON(dst []byte) ([]byte, error) {
	w := jsonwire.Writer{B: dst}
	w.Raw(`{"checkins":`)
	if b.Checkins == nil {
		w.Raw("null")
	} else {
		w.Raw("[")
		for i := range b.Checkins {
			if i > 0 {
				w.Raw(",")
			}
			c := &b.Checkins[i]
			w.Raw(`{"poi_id":`)
			w.Int(c.POIID)
			w.Raw(`,"time":`)
			w.Int(c.Time)
			if c.Grade != 0 {
				w.Raw(`,"grade":`)
				w.Float(c.Grade)
			}
			if c.Network != "" {
				w.Raw(`,"network":`)
				w.String(c.Network)
			}
			w.Raw("}")
		}
		w.Raw("]")
	}
	w.Raw(`,"token":`)
	w.String(b.Token)
	w.Raw("}")
	return w.B, w.Err
}

// errUnknownField refuses a member the request type does not declare, as
// DisallowUnknownFields does.
var errUnknownField = errors.New("wire: unknown field")

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

// DecodeJSON decodes a whole search body into s, as json.Decoder.Decode
// with DisallowUnknownFields would.
func (s *SearchRequest) DecodeJSON(body []byte) error {
	d := jsonwire.NewDecoder(body)
	if err := d.Stream(func(key string) error { return s.member(&d, key) }); err != nil {
		return err
	}
	// A cached ranking keeps its query's keyword and order.
	s.Keyword, s.OrderBy = strings.Clone(s.Keyword), strings.Clone(s.OrderBy)
	return nil
}

func (s *SearchRequest) member(d *jsonwire.Decoder, key string) error {
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

var checkinsKeys = []string{"checkins", "token"}

// DecodeJSON decodes a whole check-in batch body into c, as
// json.Decoder.Decode with DisallowUnknownFields would.
func (c *CheckinsRequest) DecodeJSON(body []byte) error {
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

func (c *CheckinsRequest) member(d *jsonwire.Decoder, key string) error {
	switch key {
	case "token":
		return d.String(&c.Token)
	case "checkins":
		return jsonwire.List(d, &c.Checkins, "[]wire.Checkin", d.Remaining()/checkinWidth,
			func(it *Checkin) error { return it.decodeItem(d) })
	}
	if k := jsonwire.FoldKey(key, checkinsKeys); k != "" {
		return c.member(d, k)
	}
	return errUnknownField
}

var checkinKeys = []string{"poi_id", "time", "grade", "network"}

func (it *Checkin) decodeItem(d *jsonwire.Decoder) error {
	switch d.Lookahead() {
	case 'n':
		return d.Literal("null")
	case '{':
		return d.Object(func(key string) error { return it.member(d, key) })
	}
	return d.Mismatch("wire.Checkin")
}

func (it *Checkin) member(d *jsonwire.Decoder, key string) error {
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
