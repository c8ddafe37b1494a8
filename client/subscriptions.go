package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"modissense/internal/wire"
)

// Subscription is the client view of one standing spatio-textual query.
type Subscription struct {
	ID            string   `json:"id"`
	UserID        int64    `json:"user_id"`
	MinLat        float64  `json:"min_lat"`
	MinLon        float64  `json:"min_lon"`
	MaxLat        float64  `json:"max_lat"`
	MaxLon        float64  `json:"max_lon"`
	Keywords      []string `json:"keywords"`
	CreatedMillis int64    `json:"created_ms"`
	ExpiresMillis int64    `json:"expires_ms"`
}

// SubscriptionEvent is one matched check-in delivered to a subscription.
// Seq is the resume cursor: pass the last seen Seq back to PollEvents or
// StreamEvents to receive only newer events.
type SubscriptionEvent struct {
	Seq            uint64  `json:"seq"`
	SubscriptionID string  `json:"subscription_id"`
	UserID         int64   `json:"user_id"`
	POIID          int64   `json:"poi_id"`
	POIName        string  `json:"poi_name"`
	Lat            float64 `json:"lat"`
	Lon            float64 `json:"lon"`
	TimeMillis     int64   `json:"time"`
	Grade          float64 `json:"grade"`
	Network        string  `json:"network"`
}

// SubscriptionSpec is the create request: the region of interest, the
// keyword set (empty = purely spatial) and an optional TTL (0 = server
// default; the server clamps long TTLs).
type SubscriptionSpec struct {
	MinLat, MinLon, MaxLat, MaxLon float64
	Keywords                       []string
	TTL                            time.Duration
}

// CreateSubscription registers a standing query for the signed-in user.
// An overloaded answer (registry full: 503, per-user quota: 429) is
// retried per the client's RetryPolicy and, if still refused, satisfies
// IsOverloaded.
func (c *Client) CreateSubscription(spec SubscriptionSpec) (Subscription, error) {
	var out Subscription
	err := c.do(http.MethodPost, "/api/v1/subscriptions", wire.SubscriptionRequest{
		Token:  c.token,
		MinLat: spec.MinLat, MinLon: spec.MinLon, MaxLat: spec.MaxLat, MaxLon: spec.MaxLon,
		Keywords:   spec.Keywords,
		TTLSeconds: int(spec.TTL / time.Second),
	}, &out)
	return out, err
}

// Subscriptions lists the signed-in user's live subscriptions, one page
// at a time: limit bounds the page (0 = server maximum) and cursor
// resumes a previous listing ("" = first page). The returned cursor is ""
// on the final page.
func (c *Client) Subscriptions(limit int, cursor string) ([]Subscription, string, error) {
	v := url.Values{}
	v.Set("token", c.token)
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if cursor != "" {
		v.Set("cursor", cursor)
	}
	var out wire.Page[Subscription]
	if err := c.do(http.MethodGet, "/api/v1/subscriptions?"+v.Encode(), nil, &out); err != nil {
		return nil, "", err
	}
	return out.Items, out.NextCursor, nil
}

// GetSubscription fetches one of the signed-in user's subscriptions.
func (c *Client) GetSubscription(id string) (Subscription, error) {
	var out Subscription
	err := c.do(http.MethodGet, "/api/v1/subscriptions/"+url.PathEscape(id)+"?token="+url.QueryEscape(c.token), nil, &out)
	return out, err
}

// DeleteSubscription cancels one of the signed-in user's subscriptions.
func (c *Client) DeleteSubscription(id string) error {
	return c.do(http.MethodDelete, "/api/v1/subscriptions/"+url.PathEscape(id)+"?token="+url.QueryEscape(c.token), nil, nil)
}

// PollEvents long-polls one subscription for events newer than cursor,
// holding the request up to wait when none are buffered (0 = return
// immediately; the server clamps long waits). It returns the events and
// the cursor to resume from.
func (c *Client) PollEvents(ctx context.Context, id string, cursor uint64, limit int, wait time.Duration) ([]SubscriptionEvent, uint64, error) {
	v := url.Values{}
	v.Set("token", c.token)
	v.Set("cursor", strconv.FormatUint(cursor, 10))
	if limit > 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	if wait > 0 {
		v.Set("wait_ms", strconv.FormatInt(int64(wait/time.Millisecond), 10))
	}
	var out wire.Page[SubscriptionEvent]
	if err := c.doCtx(ctx, http.MethodGet, "/api/v1/subscriptions/"+url.PathEscape(id)+"/events?"+v.Encode(), nil, &out); err != nil {
		return nil, cursor, err
	}
	next := cursor
	if out.NextCursor != "" {
		if parsed, err := strconv.ParseUint(out.NextCursor, 10, 64); err == nil {
			next = parsed
		}
	}
	return out.Items, next, nil
}

// EventStream iterates a subscription's SSE stream:
//
//	stream, err := c.StreamEvents(ctx, sub.ID, 0)
//	defer stream.Close()
//	for stream.Next() {
//	    ev := stream.Event()
//	    ...
//	}
//	if err := stream.Err(); err != nil { ... }
//
// Next blocks until the next event arrives, the stream ends (subscription
// deleted or expired — Err returns nil), the context is cancelled, or the
// connection fails (Err returns the cause).
type EventStream struct {
	body   io.ReadCloser
	cancel context.CancelFunc
	sc     *bufio.Scanner
	cur    SubscriptionEvent
	err    error
	done   bool
	// closed flags an explicit Close, possibly from another goroutine while
	// Next blocks in a read; the resulting read error is then suppressed.
	closed atomic.Bool
}

// StreamEvents opens a Server-Sent-Events stream over one subscription's
// events, resuming after cursor (0 = from the oldest buffered event).
// Cancelling ctx ends the stream. The caller must Close the stream.
func (c *Client) StreamEvents(ctx context.Context, id string, cursor uint64) (*EventStream, error) {
	v := url.Values{}
	v.Set("token", c.token)
	if cursor > 0 {
		v.Set("cursor", strconv.FormatUint(cursor, 10))
	}
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.baseURL+"/api/v1/subscriptions/"+url.PathEscape(id)+"/events?"+v.Encode(), nil)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("client: open event stream: %w", err)
	}
	c.setLastRequestID(resp.Header.Get("X-Request-ID"))
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Status: resp.StatusCode, RequestID: resp.Header.Get("X-Request-ID")}
		var e wire.ErrorEnvelope
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error.Message != "" {
			apiErr.Code = e.Error.Code
			apiErr.Message = e.Error.Message
		} else {
			apiErr.Message = fmt.Sprintf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("client: open event stream: %w", apiErr)
	}
	return &EventStream{body: resp.Body, cancel: cancel, sc: bufio.NewScanner(resp.Body)}, nil
}

// Next advances to the next event, blocking until one arrives. It returns
// false when the stream ends; check Err to distinguish a clean end
// (subscription gone, stream closed: nil) from a transport failure.
func (s *EventStream) Next() bool {
	if s.done {
		return false
	}
	var event, data string
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			// Frame boundary: dispatch what we collected.
			if event == "gone" {
				s.done = true
				return false
			}
			if data != "" && (event == "" || event == "checkin") {
				var ev SubscriptionEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					s.err = fmt.Errorf("client: decode event: %w", err)
					s.done = true
					return false
				}
				s.cur = ev
				return true
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"): // keep-alive comment
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	// Scanner stopped: closed stream or transport error.
	if err := s.sc.Err(); err != nil && s.err == nil && !s.closed.Load() {
		s.err = err
	}
	s.done = true
	return false
}

// Event returns the event Next advanced to.
func (s *EventStream) Event() SubscriptionEvent { return s.cur }

// Err returns the first error the stream hit (nil after a clean end).
func (s *EventStream) Err() error { return s.err }

// Close tears the stream down; always call it when done. Closing from
// another goroutine unblocks a Next in flight (which then returns false
// with a nil Err).
func (s *EventStream) Close() error {
	s.closed.Store(true)
	s.cancel()
	return s.body.Close()
}
