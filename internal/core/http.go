package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"modissense/internal/admit"
	"modissense/internal/exec"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/query"
)

// apiError is the uniform error envelope of every endpoint:
//
//	{"error": {"code": "timeout", "message": "...", "requestId": "..."}}
//
// Code names the machine-readable failure class (a fixed enum — see
// API.md); RequestID echoes the X-Request-ID so the failing request's trace
// can be fetched.
type apiError struct {
	Error apiErrorBody `json:"error"`
}

// apiErrorBody is the payload inside the envelope.
type apiErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"requestId"`
}

// Error codes of the envelope — the API's failure-class enum.
const (
	codeBadRequest   = "bad_request"
	codeUnauthorized = "unauthorized"
	codeNotFound     = "not_found"
	codeInternal     = "internal"
	codeTimeout      = "timeout"
	codeCanceled     = "canceled"
	codeOverloaded   = "overloaded"
)

// codeForStatus maps an HTTP status onto the envelope's default code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return codeBadRequest
	case http.StatusUnauthorized:
		return codeUnauthorized
	case http.StatusNotFound:
		return codeNotFound
	case http.StatusGatewayTimeout:
		return codeTimeout
	case StatusClientClosedRequest:
		return codeCanceled
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return codeOverloaded
	default:
		return codeInternal
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// resultBufs recycles the buffers search and trending answers are encoded
// into. A buffer grown past maxPooledResult (a limit = 0 answer) is left to
// the collector rather than pinned in the pool.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResult = 64 << 10

// writeResult answers a search or trending request with the bytes writeJSON
// would send — query.Result.AppendJSON is encoding/json's output, plus the
// newline json.Encoder ends with — but without reflection, and encoded
// before the status is committed, so an unencodable answer (a NaN score) is
// the 500 envelope rather than a 200 with an empty body.
func writeResult(w http.ResponseWriter, r *http.Request, res *query.Result) {
	bp := resultBufs.Get().(*[]byte)
	b, err := res.AppendJSON((*bp)[:0])
	if err != nil {
		resultBufs.Put(bp)
		writeErrCode(w, r, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledResult {
		*bp = b
		resultBufs.Put(bp)
	}
}

// writeErrCode emits the error envelope with an explicit code.
func writeErrCode(w http.ResponseWriter, r *http.Request, status int, code, message string) {
	writeJSON(w, status, apiError{Error: apiErrorBody{
		Code:      code,
		Message:   message,
		RequestID: requestIDFrom(r.Context()),
	}})
}

// writeErr emits the error envelope, deriving the code from the status.
func writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeErrCode(w, r, status, codeForStatus(status), err.Error())
}

// StatusClientClosedRequest is the de-facto status (nginx's 499) reported
// when the client goes away before the response is ready.
const StatusClientClosedRequest = 499

// requestContext derives the per-request query context: the request's own
// context (cancelled when the client disconnects) bounded by the
// configured query timeout.
func (p *Platform) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if t := p.cfg.QueryTimeout; t > 0 {
		return context.WithTimeout(r.Context(), t)
	}
	return context.WithCancel(r.Context())
}

// defaultRetryAfter is the Retry-After hint on overload answers that carry
// no better estimate (queue sheds, drained retry budgets, open breakers).
const defaultRetryAfter = time.Second

// writeOverloaded emits an overload rejection: the given 429/503 status,
// a Retry-After header (whole seconds, rounded up, at least 1) and the
// "overloaded" envelope.
func writeOverloaded(w http.ResponseWriter, r *http.Request, status int, retryAfter time.Duration, message string) {
	secs := int64((retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeErrCode(w, r, status, codeOverloaded, message)
}

// writeQueryErr maps a query-path failure onto the API contract: deadline
// expiry answers 504 with code "timeout", client cancellation answers 499
// with code "canceled", overload signals — a scatter task shed by the
// bounded exec queue, a drained retry budget, or every copy behind an open
// breaker — answer 503 with code "overloaded" and a Retry-After, an
// exhausted read-attempt budget (a region unavailable with degradation
// off) answers 500 with code "internal", and anything else is a plain 400.
func writeQueryErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeErrCode(w, r, http.StatusGatewayTimeout, codeTimeout, err.Error())
	case errors.Is(err, context.Canceled):
		writeErrCode(w, r, StatusClientClosedRequest, codeCanceled, err.Error())
	case errors.Is(err, exec.ErrShed),
		errors.Is(err, exec.ErrRetryBudgetExhausted),
		errors.Is(err, admit.ErrBreakerOpen):
		writeOverloaded(w, r, http.StatusServiceUnavailable, defaultRetryAfter, err.Error())
	case errors.Is(err, exec.ErrAttemptsExhausted):
		writeErrCode(w, r, http.StatusInternalServerError, codeInternal, err.Error())
	default:
		writeErr(w, r, http.StatusBadRequest, err)
	}
}

func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("core: invalid request body: %w", err)
	}
	return nil
}

type signInRequest struct {
	Network     string `json:"network"`
	Credentials string `json:"credentials"`
}

type signInResponse struct {
	UserID   int64    `json:"user_id"`
	Token    string   `json:"token"`
	Networks []string `json:"networks"`
}

func (p *Platform) handleSignIn(w http.ResponseWriter, r *http.Request) {
	var req signInRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	acct, token, err := p.Users.SignIn(req.Network, req.Credentials)
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, signInResponse{UserID: acct.UserID, Token: token, Networks: acct.Networks()})
}

type linkRequest struct {
	Token       string `json:"token"`
	Network     string `json:"network"`
	Credentials string `json:"credentials"`
}

func (p *Platform) handleLink(w http.ResponseWriter, r *http.Request) {
	var req linkRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	acct, err := p.Users.Link(req.Token, req.Network, req.Credentials)
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, signInResponse{UserID: acct.UserID, Networks: acct.Networks()})
}

func (p *Platform) handleFriends(w http.ResponseWriter, r *http.Request) {
	uid, err := p.Users.Authenticate(r.URL.Query().Get("token"))
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return
	}
	friends, err := p.Users.Friends(uid)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	if network := r.URL.Query().Get("network"); network != "" {
		filtered := friends[:0]
		for _, f := range friends {
			if f.Network == network {
				filtered = append(filtered, f)
			}
		}
		friends = filtered
	}
	pp, err := parsePageParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if pp.explicit {
		writePage(w, friends, pp)
		return
	}
	writeJSON(w, http.StatusOK, friends)
}

// searchJSON is the REST form of a personalized search.
type searchJSON struct {
	Token   string  `json:"token"`
	MinLat  float64 `json:"min_lat"`
	MinLon  float64 `json:"min_lon"`
	MaxLat  float64 `json:"max_lat"`
	MaxLon  float64 `json:"max_lon"`
	Keyword string  `json:"keyword"`
	Friends []int64 `json:"friends"`
	// From/To are RFC3339 timestamps; empty means open-ended.
	From    string `json:"from"`
	To      string `json:"to"`
	OrderBy string `json:"order_by"`
	Limit   int    `json:"limit"`
}

func parseTimeOr(s string, fallback time.Time) (time.Time, error) {
	if s == "" {
		return fallback, nil
	}
	return time.Parse(time.RFC3339, s)
}

func (p *Platform) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchJSON
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	from, err := parseTimeOr(req.From, time.Unix(0, 0).UTC())
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	to, err := parseTimeOr(req.To, time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	var bbox *geo.Rect
	if req.MinLat != 0 || req.MaxLat != 0 || req.MinLon != 0 || req.MaxLon != 0 {
		b := geo.NewRect(geo.Point{Lat: req.MinLat, Lon: req.MinLon}, geo.Point{Lat: req.MaxLat, Lon: req.MaxLon})
		bbox = &b
	}
	ctx, cancel := p.requestContext(r)
	defer cancel()
	res, err := p.Search(ctx, SearchRequest{
		Token:   req.Token,
		BBox:    bbox,
		Keyword: req.Keyword,
		Friends: req.Friends,
		From:    from,
		To:      to,
		OrderBy: query.OrderBy(req.OrderBy),
		Limit:   req.Limit,
	})
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	writeResult(w, r, res)
}

// queryBox reads the optional min_lat/min_lon/max_lat/max_lon bounding box
// of a GET request. All four absent means no box; anything else — a corner
// missing, or one that is not a number — is an error, so a mistyped box is
// refused rather than answered as the unfiltered query.
func queryBox(q url.Values) (*geo.Rect, error) {
	keys := [4]string{"min_lat", "min_lon", "max_lat", "max_lon"}
	var c [4]float64
	present := 0
	for i, k := range keys {
		raw := q.Get(k)
		if raw == "" {
			continue
		}
		present++
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("core: invalid bounding box: %s %q", k, raw)
		}
		c[i] = v
	}
	switch present {
	case 0:
		return nil, nil
	case len(keys):
		b := geo.NewRect(geo.Point{Lat: c[0], Lon: c[1]}, geo.Point{Lat: c[2], Lon: c[3]})
		return &b, nil
	}
	return nil, fmt.Errorf("core: invalid bounding box: %d of %s given", present, strings.Join(keys[:], ", "))
}

func (p *Platform) handleTrending(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bbox, err := queryBox(q)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	hours := 24
	if h := q.Get("hours"); h != "" {
		v, err := strconv.Atoi(h)
		if err != nil || v < 1 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid hours %q", h))
			return
		}
		hours = v
	}
	limit := 10
	if l := q.Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 1 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid limit %q", l))
			return
		}
		limit = v
	}
	var friends []int64
	for _, f := range q["friends"] {
		id, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid friend id %q", f))
			return
		}
		friends = append(friends, id)
	}
	// The window's end defaults to "now" in platform time: the maximum
	// visit timestamp would require a scan, so the API takes an explicit
	// until when precision matters.
	until := time.Now().UTC()
	if u := q.Get("until"); u != "" {
		t, err := time.Parse(time.RFC3339, u)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, err)
			return
		}
		until = t
	}
	// An explicit from overrides the hours-derived window start. A from at
	// or past until reaches the engine's empty-window guard and comes back
	// as the uniform 400 envelope.
	from := until.Add(-time.Duration(hours) * time.Hour)
	if f := q.Get("from"); f != "" {
		t, err := time.Parse(time.RFC3339, f)
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, err)
			return
		}
		from = t
	}
	ctx, cancel := p.requestContext(r)
	defer cancel()
	res, err := p.Trending(ctx, bbox, friends, from, until, limit)
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	writeResult(w, r, res)
}

func (p *Platform) handlePOI(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid POI id"))
		return
	}
	poi, ok := p.POIs.Get(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("core: no POI %d", id))
		return
	}
	writeJSON(w, http.StatusOK, poi)
}

type gpsRequest struct {
	Token string         `json:"token"`
	Fixes []model.GPSFix `json:"fixes"`
}

func (p *Platform) handleGPS(w http.ResponseWriter, r *http.Request) {
	var req gpsRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	n, err := p.PushGPS(req.Token, req.Fixes)
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"stored": n})
}

// checkinsRequest is the batched ingest form: one authenticated user pushing
// many check-ins in a single request.
type checkinsRequest struct {
	Token    string        `json:"token"`
	Checkins []CheckinPush `json:"checkins"`
}

// checkinsResponse reports a batched push: how many items were stored plus a
// per-item error list for the rejected ones (absent when every item landed).
type checkinsResponse struct {
	Stored int                `json:"stored"`
	Errors []CheckinItemError `json:"errors,omitempty"`
}

func (p *Platform) handleCheckins(w http.ResponseWriter, r *http.Request) {
	var req checkinsRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if len(req.Checkins) == 0 {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: empty check-in batch"))
		return
	}
	if _, err := p.Users.Authenticate(req.Token); err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return
	}
	stored, itemErrs, err := p.PushCheckins(req.Token, req.Checkins)
	if err != nil {
		// A down primary is transient: a replica promotion is cutting the
		// region over, so the client should retry after the hint instead
		// of treating the batch as lost.
		if errors.Is(err, kvstore.ErrPrimaryDown) {
			writeOverloaded(w, r, http.StatusServiceUnavailable, defaultRetryAfter, err.Error())
			return
		}
		// The batch validated but could not be persisted (store failure).
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, checkinsResponse{Stored: stored, Errors: itemErrs})
}

type blogRequest struct {
	Token string `json:"token"`
	// Date is a YYYY-MM-DD day.
	Date string `json:"date"`
}

func parseDay(s string) (time.Time, error) {
	return time.Parse("2006-01-02", s)
}

func (p *Platform) handleBlogGenerate(w http.ResponseWriter, r *http.Request) {
	var req blogRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	day, err := parseDay(req.Date)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	blog, err := p.GenerateBlog(req.Token, day)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, blog)
}

type windowRequest struct {
	Since string `json:"since"`
	Until string `json:"until"`
}

func (r windowRequest) parse() (time.Time, time.Time, error) {
	since, err := time.Parse(time.RFC3339, r.Since)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	until, err := time.Parse(time.RFC3339, r.Until)
	if err != nil {
		return time.Time{}, time.Time{}, err
	}
	return since, until, nil
}

func (p *Platform) handleCollect(w http.ResponseWriter, r *http.Request) {
	var req windowRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	since, until, err := req.parse()
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	stats, err := p.Collect(since, until)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

func (p *Platform) handleHotIn(w http.ResponseWriter, r *http.Request) {
	var req windowRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	from, to, err := req.parse()
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	stats, err := p.UpdateHotIn(from, to)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

type eventsRequest struct {
	EpsMeters  float64 `json:"eps_meters"`
	MinPts     int     `json:"min_pts"`
	Partitions int     `json:"partitions"`
}

func (p *Platform) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req eventsRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := p.requestContext(r)
	defer cancel()
	res, err := p.DetectEvents(ctx, EventDetectionParams{
		Eps:        req.EpsMeters,
		MinPts:     req.MinPts,
		Partitions: req.Partitions,
	})
	if err != nil {
		writeQueryErr(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (p *Platform) handleStats(w http.ResponseWriter, r *http.Request) {
	stats, err := p.Stats()
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

type pipelineRequest struct {
	// Date is the YYYY-MM-DD day to process.
	Date string `json:"date"`
	// HotInWindowHours overrides the hotness window (0 = default 168h).
	HotInWindowHours int `json:"hotin_window_hours"`
}

func (p *Platform) handlePipeline(w http.ResponseWriter, r *http.Request) {
	var req pipelineRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	day, err := parseDay(req.Date)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	opts := PipelineOptions{}
	if req.HotInWindowHours > 0 {
		opts.HotInWindow = time.Duration(req.HotInWindowHours) * time.Hour
	}
	ctx, cancel := p.requestContext(r)
	defer cancel()
	report, err := p.RunDailyPipeline(ctx, day, opts)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeQueryErr(w, r, err)
			return
		}
		writeErr(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

func (p *Platform) handleCategoryAnalytics(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bbox, err := queryBox(q)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, p.POIs.CategoryStats(bbox))
}
