// Package client is a typed Go client for the MoDisSENSE REST API: the
// same JSON contract the paper's web and mobile frontends speak, wrapped
// in Go methods. It lets external applications integrate with a running
// modissense-server without touching the platform internals.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modissense/internal/jsonwire"
	"modissense/internal/model"
	"modissense/internal/obs"
	"modissense/internal/query"
)

// Client talks to one MoDisSENSE server. The zero value is not usable;
// construct with New. Client is safe for concurrent use.
type Client struct {
	baseURL string
	http    *http.Client
	// token is the access token of the signed-in user ("" before SignIn),
	// userID the account it belongs to (the {id} of its resource paths).
	token  string
	userID int64

	mu sync.Mutex
	// lastRequestID is the X-Request-ID of the most recent response.
	lastRequestID string

	// retry holds the overload-retry state: the per-call policy plus the
	// client-wide token budget that stops a storm of 429/503 answers from
	// being amplified by every caller retrying at once.
	retry struct {
		mu     sync.Mutex
		policy RetryPolicy
		tokens float64
		// rng is the splitmix64 state the retry jitter is drawn from.
		rng uint64
	}
}

// RetryPolicy tunes the client's automatic retry of overload answers
// (HTTP 429/503 with the "overloaded" envelope). See SetRetryPolicy.
type RetryPolicy struct {
	// MaxRetries is the per-call retry cap (0 disables retrying).
	MaxRetries int
	// MaxWait clamps how long a server Retry-After hint is honored; with no
	// hint the client waits ~25ms. The actual wait is jittered downward to
	// desynchronize competing clients.
	MaxWait time.Duration
	// Budget is the client-wide retry-token cap: each retry spends one
	// token, each successful request earns half a token back (gRPC-style
	// retry throttling). When the budget is drained the overload error is
	// returned immediately.
	Budget float64
}

// DefaultRetryPolicy is the policy installed by New: up to two retries per
// call, Retry-After honored up to 2s, and a 10-token client-wide budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 2, MaxWait: 2 * time.Second, Budget: 10}
}

// SetRetryPolicy replaces the overload-retry policy (and refills the budget
// to the new cap). A zero policy disables retrying entirely.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retry.mu.Lock()
	defer c.retry.mu.Unlock()
	c.retry.policy = p
	c.retry.tokens = p.Budget
}

// New creates a client for the server at baseURL (e.g.
// "http://localhost:8080"). A nil httpClient uses a 30-second-timeout
// default.
func New(baseURL string, httpClient *http.Client) (*Client, error) {
	if baseURL == "" {
		return nil, fmt.Errorf("client: empty base URL")
	}
	u, err := url.Parse(baseURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") {
		return nil, fmt.Errorf("client: invalid base URL %q", baseURL)
	}
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{baseURL: u.String(), http: httpClient}
	c.retry.policy = DefaultRetryPolicy()
	c.retry.tokens = c.retry.policy.Budget
	c.retry.rng = uint64(time.Now().UnixNano()) ^ mix64(clientSeq.Add(1))
	return c, nil
}

// clientSeq numbers the clients of the process, so two created within one
// clock tick still seed different jitter streams.
var clientSeq atomic.Uint64

// mix64 is splitmix64's output function: a bijection of the 64-bit words
// that sends nearby inputs far apart.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Token returns the current access token.
func (c *Client) Token() string { return c.token }

// LastRequestID returns the X-Request-ID of the most recent response ("",
// before the first call). Pass it to QueryTrace to fetch that request's
// span tree.
func (c *Client) LastRequestID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastRequestID
}

func (c *Client) setLastRequestID(id string) {
	if id == "" {
		return
	}
	c.mu.Lock()
	c.lastRequestID = id
	c.mu.Unlock()
}

// APIError is the server's error envelope as a typed Go error. Use
// errors.As to inspect the failure class:
//
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == "timeout" { ... }
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable failure class ("bad_request",
	// "unauthorized", "not_found", "internal", "timeout", "canceled",
	// "overloaded").
	Code string
	// Message is the human-readable description.
	Message string
	// RequestID identifies the failing request; its trace may be
	// retrievable via QueryTrace.
	RequestID string
	// RetryAfter is the server's parsed Retry-After hint on overload
	// answers (0 when absent).
	RetryAfter time.Duration
}

// CodeOverloaded is the envelope code of a 429/503 overload rejection:
// admission said no, the exec queue shed the query, the retry budget
// drained, or every replica sat behind an open breaker.
const CodeOverloaded = "overloaded"

// IsOverloaded reports whether err is an overload rejection the caller may
// retry after backing off (the client has already retried per its policy).
func IsOverloaded(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) &&
		(apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable)
}

// IsNotFound reports whether err is the server saying the addressed
// resource does not exist (or is not visible to the signed-in user).
func IsNotFound(err error) bool {
	var apiErr *APIError
	return errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("%s (status %d, code %s, request %s)", e.Message, e.Status, e.Code, e.RequestID)
	}
	return fmt.Sprintf("%s (status %d, code %s)", e.Message, e.Status, e.Code)
}

// apiEnvelope mirrors the server's error envelope JSON.
type apiEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"requestId"`
	} `json:"error"`
}

// do sends a request and decodes the JSON response into out (when non-nil).
// A body is marshalled with encoding/json unless it is a jsonBody.
func (c *Client) do(method, path string, body, out interface{}) error {
	return c.doCtx(context.Background(), method, path, body, out)
}

// doCtx is do bound to a caller context: cancelling ctx aborts the request
// (and, server-side, the query it carries). Overload answers (429/503) are
// retried per the client's RetryPolicy, honoring the server's Retry-After
// hint with downward jitter; every other failure returns immediately.
func (c *Client) doCtx(ctx context.Context, method, path string, body, out interface{}) error {
	var raw []byte
	switch b := body.(type) {
	case nil:
	case jsonBody:
		raw = b
	default:
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.doOnce(ctx, method, path, raw, body != nil, out)
		if err == nil {
			c.earnRetryToken()
			return err
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || !IsOverloaded(err) {
			return err
		}
		wait, ok := c.nextRetryWait(attempt, apiErr.RetryAfter)
		if !ok {
			return err
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return err
		}
	}
}

// nextRetryWait decides whether one more retry may run (per-call cap and
// client-wide budget) and how long to sleep first.
func (c *Client) nextRetryWait(attempt int, hint time.Duration) (time.Duration, bool) {
	c.retry.mu.Lock()
	defer c.retry.mu.Unlock()
	p := c.retry.policy
	if attempt >= p.MaxRetries || c.retry.tokens < 1 {
		return 0, false
	}
	c.retry.tokens--
	wait := 25 * time.Millisecond
	if hint > 0 {
		wait = hint
	}
	if p.MaxWait > 0 && wait > p.MaxWait {
		wait = p.MaxWait
	}
	// Jitter downward into [wait/2, wait]: competing clients retrying the
	// same overload hint should not stampede back in lockstep. One
	// splitmix64 step: advance the state by its gamma, mix the result.
	c.retry.rng += 0x9e3779b97f4a7c15
	wait = wait/2 + time.Duration(mix64(c.retry.rng)%uint64(wait/2+1))
	return wait, true
}

// earnRetryToken refills half a retry token on success, up to the budget.
func (c *Client) earnRetryToken() {
	c.retry.mu.Lock()
	defer c.retry.mu.Unlock()
	if c.retry.tokens += 0.5; c.retry.tokens > c.retry.policy.Budget {
		c.retry.tokens = c.retry.policy.Budget
	}
}

// doOnce runs a single HTTP attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, raw []byte, hasBody bool, out interface{}) error {
	reqBody := bytes.NewReader(raw)
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, reqBody)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if hasBody {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	c.setLastRequestID(reqID)
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, RequestID: reqID}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		var e apiEnvelope
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error.Message != "" {
			apiErr.Code = e.Error.Code
			apiErr.Message = e.Error.Message
			if e.Error.RequestID != "" {
				apiErr.RequestID = e.Error.RequestID
			}
		} else {
			apiErr.Message = fmt.Sprintf("status %d", resp.StatusCode)
		}
		return fmt.Errorf("client: %s %s: %w", method, path, apiErr)
	}
	if out == nil {
		return nil
	}
	if res, ok := out.(*query.Result); ok {
		err = readAndDecode(resp, res)
	} else {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("client: decode %s response: %w", path, err)
	}
	return nil
}

// bodyBufs recycles the buffers requests are encoded into and answers are
// read into; one grown past maxPooledBody is left to the collector. An
// answer buffer is reusable once DecodeJSON returns (it keeps no reference
// to its input). A request buffer is reusable once the call returns: the
// server has answered by then, so it has either read the body or refused
// the request unread, and then whatever the transport may still be sending
// from the buffer is discarded unread.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

func releaseBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyBufs.Put(bp)
	}
}

// readAndDecode reads a search or trending answer into a pooled buffer,
// sized from the Content-Length when the server sent one, and decodes it in
// one pass (query.Result.DecodeJSON) instead of through encoding/json.
func readAndDecode(resp *http.Response, res *query.Result) error {
	bp := bodyBufs.Get().(*[]byte)
	defer releaseBody(bp)
	buf, err := jsonwire.ReadBody(resp.Body, (*bp)[:0], resp.ContentLength, maxPooledBody)
	*bp = buf
	if err != nil {
		return err
	}
	return res.DecodeJSON(buf)
}

// jsonBody is a request body already encoded, sent as it is.
type jsonBody []byte

// encodedBody is a request form with a hand encoder: appendJSON appends
// json.Marshal's bytes for it.
type encodedBody interface {
	appendJSON(dst []byte) ([]byte, error)
}

// postCtx sends body, appended into a pooled buffer rather than marshalled,
// and decodes the answer into out.
func (c *Client) postCtx(ctx context.Context, path string, body encodedBody, out interface{}) error {
	bp := bodyBufs.Get().(*[]byte)
	defer releaseBody(bp)
	raw, err := body.appendJSON((*bp)[:0])
	if err != nil {
		return fmt.Errorf("client: marshal request: %w", err)
	}
	*bp = raw
	return c.doCtx(ctx, http.MethodPost, path, jsonBody(raw), out)
}

// Session is the result of a sign-in or link call.
type Session struct {
	UserID   int64    `json:"user_id"`
	Token    string   `json:"token"`
	Networks []string `json:"networks"`
}

// SignIn registers or signs in with social-network credentials and stores
// the access token on the client.
func (c *Client) SignIn(network, credentials string) (Session, error) {
	var s Session
	err := c.do(http.MethodPost, "/api/v1/signin", map[string]string{
		"network": network, "credentials": credentials,
	}, &s)
	if err == nil {
		c.token, c.userID = s.Token, s.UserID
	}
	return s, err
}

// Link attaches one more social network to the signed-in account.
func (c *Client) Link(network, credentials string) (Session, error) {
	var s Session
	err := c.do(http.MethodPost, "/api/v1/link", map[string]string{
		"token": c.token, "network": network, "credentials": credentials,
	}, &s)
	return s, err
}

// Friends lists the signed-in user's friends ("" = all networks).
func (c *Client) Friends(network string) ([]model.Friend, error) {
	path := "/api/v1/friends?token=" + url.QueryEscape(c.token)
	if network != "" {
		path += "&network=" + url.QueryEscape(network)
	}
	var out []model.Friend
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// SearchParams is a personalized POI search.
type SearchParams struct {
	MinLat, MinLon, MaxLat, MaxLon float64
	Keyword                        string
	Friends                        []int64
	From, To                       time.Time
	OrderBy                        string // "interest" | "hotness"
	Limit                          int
}

// Search runs a personalized query as the signed-in user.
func (c *Client) Search(p SearchParams) (*query.Result, error) {
	return c.SearchCtx(context.Background(), p)
}

// searchRequest is the body of POST /search: the keys of the server's
// searchJSON, with an open window end left out. appendJSON writes it.
type searchRequest struct {
	Token   string  `json:"token"`
	MinLat  float64 `json:"min_lat"`
	MinLon  float64 `json:"min_lon"`
	MaxLat  float64 `json:"max_lat"`
	MaxLon  float64 `json:"max_lon"`
	Keyword string  `json:"keyword"`
	Friends []int64 `json:"friends"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	OrderBy string  `json:"order_by"`
	Limit   int     `json:"limit"`
}

// SearchCtx is Search bound to a caller context; cancelling it aborts the
// query server-side mid-scan.
func (c *Client) SearchCtx(ctx context.Context, p SearchParams) (*query.Result, error) {
	body := searchRequest{
		Token:  c.token,
		MinLat: p.MinLat, MinLon: p.MinLon, MaxLat: p.MaxLat, MaxLon: p.MaxLon,
		Keyword: p.Keyword,
		Friends: p.Friends,
		OrderBy: p.OrderBy,
		Limit:   p.Limit,
	}
	if !p.From.IsZero() {
		body.From = p.From.Format(time.RFC3339)
	}
	if !p.To.IsZero() {
		body.To = p.To.Format(time.RFC3339)
	}
	var out query.Result
	if err := c.postCtx(ctx, "/api/v1/search", &body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// appendJSON appends json.Marshal(r)'s bytes to dst. A NaN or infinite
// coordinate is json.Marshal's *json.UnsupportedValueError.
func (r *searchRequest) appendJSON(dst []byte) ([]byte, error) {
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

// Trending fetches the hottest places in the box over the hours before
// until. hours and limit of 0 (or less) take the server's defaults, 24 h
// and 10 POIs; a zero until is the server's now.
func (c *Client) Trending(minLat, minLon, maxLat, maxLon float64, hours, limit int, until time.Time) (*query.Result, error) {
	return c.TrendingCtx(context.Background(), minLat, minLon, maxLat, maxLon, hours, limit, until)
}

// TrendingCtx is Trending bound to a caller context.
func (c *Client) TrendingCtx(ctx context.Context, minLat, minLon, maxLat, maxLon float64, hours, limit int, until time.Time) (*query.Result, error) {
	v := url.Values{}
	v.Set("min_lat", strconv.FormatFloat(minLat, 'f', -1, 64))
	v.Set("min_lon", strconv.FormatFloat(minLon, 'f', -1, 64))
	v.Set("max_lat", strconv.FormatFloat(maxLat, 'f', -1, 64))
	v.Set("max_lon", strconv.FormatFloat(maxLon, 'f', -1, 64))
	if hours > 0 {
		v.Set("hours", strconv.Itoa(hours))
	}
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if !until.IsZero() {
		v.Set("until", until.Format(time.RFC3339))
	}
	var out query.Result
	if err := c.doCtx(ctx, http.MethodGet, "/api/v1/trending?"+v.Encode(), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// POI fetches one POI by id.
func (c *Client) POI(id int64) (model.POI, error) {
	var out model.POI
	err := c.do(http.MethodGet, fmt.Sprintf("/api/v1/pois/%d", id), nil, &out)
	return out, err
}

// PushGPS uploads GPS fixes for the signed-in user and returns the stored
// count; the server stores the fixes raw.
func (c *Client) PushGPS(fixes []model.GPSFix) (int, error) {
	var out struct {
		Stored int `json:"stored"`
	}
	err := c.do(http.MethodPost, "/api/v1/gps", map[string]interface{}{
		"token": c.token, "fixes": fixes,
	}, &out)
	return out.Stored, err
}

// Checkin is one check-in in a batched ingest push.
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

// CheckinError is one rejected item of a batched check-in push: Index is the
// item's position in the pushed slice, Code the envelope failure class.
type CheckinError struct {
	Index   int    `json:"index"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchResult reports a batched check-in push: how many items the server
// stored, plus per-item errors for the rejected ones. A partially rejected
// batch is NOT an error — inspect Errors.
type BatchResult struct {
	Stored int            `json:"stored"`
	Errors []CheckinError `json:"errors"`
}

// PushCheckins uploads a batch of check-ins for the signed-in user through
// the batched ingest endpoint (one group-committed store write server-side).
// Write-class overload answers (503 + Retry-After when the server's memtable
// pressure is at the stall point, 429 when over the write rate) are retried
// per the client's RetryPolicy; a still-overloaded error satisfies
// IsOverloaded, so callers can back off and retry the whole batch safely —
// the server stored nothing when it shed the request.
func (c *Client) PushCheckins(checkins []Checkin) (BatchResult, error) {
	return c.PushCheckinsCtx(context.Background(), checkins)
}

// PushCheckinsCtx is PushCheckins bound to a caller context.
func (c *Client) PushCheckinsCtx(ctx context.Context, checkins []Checkin) (BatchResult, error) {
	var out BatchResult
	err := c.postCtx(ctx, "/api/v1/checkins", &checkinsBody{Checkins: checkins, Token: c.token}, &out)
	return out, err
}

// checkinsBody is the body of POST /checkins: the keys of the server's
// checkinsRequest, in the sorted order the body had when it was a
// map[string]interface{}. appendJSON writes it.
type checkinsBody struct {
	Checkins []Checkin `json:"checkins"`
	Token    string    `json:"token"`
}

// appendJSON appends json.Marshal(b)'s bytes to dst. A NaN or infinite
// grade is json.Marshal's *json.UnsupportedValueError.
func (b *checkinsBody) appendJSON(dst []byte) ([]byte, error) {
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

// Blog is the client view of a stored daily blog.
type Blog struct {
	ID       int64  `json:"id"`
	UserID   int64  `json:"user_id"`
	Title    string `json:"title"`
	Rendered string `json:"rendered"`
}

// GenerateBlog builds and persists the signed-in user's blog for the day.
func (c *Client) GenerateBlog(day time.Time) (Blog, error) {
	var out Blog
	err := c.do(http.MethodPost, "/api/v1/blog/generate", map[string]string{
		"token": c.token, "date": day.Format("2006-01-02"),
	}, &out)
	return out, err
}

// GetBlog fetches the signed-in user's blog for the day.
func (c *Client) GetBlog(day time.Time) (Blog, error) {
	var out Blog
	err := c.do(http.MethodGet, fmt.Sprintf("/api/v1/users/%d/blogs/%s?token=%s",
		c.userID, day.Format("2006-01-02"), url.QueryEscape(c.token)), nil, &out)
	return out, err
}

// AdminCollect triggers a data-collection pass (admin surface).
func (c *Client) AdminCollect(since, until time.Time) (map[string]interface{}, error) {
	var out map[string]interface{}
	err := c.do(http.MethodPost, "/api/v1/admin/collect", map[string]string{
		"since": since.Format(time.RFC3339), "until": until.Format(time.RFC3339),
	}, &out)
	return out, err
}

// AdminHotIn refreshes the POI table's hotness/interest from the check-ins
// of the window.
func (c *Client) AdminHotIn(from, to time.Time) (map[string]interface{}, error) {
	var out map[string]interface{}
	err := c.do(http.MethodPost, "/api/v1/admin/hotin", map[string]string{
		"since": from.Format(time.RFC3339), "until": to.Format(time.RFC3339),
	}, &out)
	return out, err
}

// AdminDetectEvents triggers MR-DBSCAN event detection.
func (c *Client) AdminDetectEvents(epsMeters float64, minPts int) (map[string]interface{}, error) {
	var out map[string]interface{}
	err := c.do(http.MethodPost, "/api/v1/admin/events", map[string]interface{}{
		"eps_meters": epsMeters, "min_pts": minPts,
	}, &out)
	return out, err
}

// Stats fetches the server's operational snapshot.
func (c *Client) Stats() (map[string]interface{}, error) {
	var out map[string]interface{}
	err := c.do(http.MethodGet, "/api/v1/stats", nil, &out)
	return out, err
}

// Blogs lists every blog of the signed-in user, newest first.
func (c *Client) Blogs() ([]Blog, error) {
	base := fmt.Sprintf("/api/v1/users/%d/blogs?token=%s", c.userID, url.QueryEscape(c.token))
	var all []Blog
	for path := base; ; {
		var page struct {
			Items      []Blog `json:"items"`
			NextCursor string `json:"next_cursor"`
		}
		if err := c.do(http.MethodGet, path, nil, &page); err != nil {
			return nil, err
		}
		all = append(all, page.Items...)
		if page.NextCursor == "" {
			return all, nil
		}
		path = base + "&cursor=" + url.QueryEscape(page.NextCursor)
	}
}

// QueryTrace fetches the span tree of a completed request by its
// X-Request-ID (see LastRequestID). The server keeps a bounded ring of
// recent traces, so fetch promptly.
func (c *Client) QueryTrace(requestID string) (obs.TraceView, error) {
	var out obs.TraceView
	err := c.do(http.MethodGet, "/api/v1/queries/"+url.PathEscape(requestID)+"/trace", nil, &out)
	return out, err
}

// Metrics fetches the server's Prometheus exposition as raw text.
func (c *Client) Metrics() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.baseURL+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return "", fmt.Errorf("client: GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: GET /metrics: status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: read /metrics: %w", err)
	}
	return string(raw), nil
}
