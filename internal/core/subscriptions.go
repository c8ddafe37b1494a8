package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"modissense/internal/geo"
	"modissense/internal/pubsub"
	"modissense/internal/wire"
)

// The subscriptions API is the resource family over the pub/sub registry:
//
//	POST   /api/v1/subscriptions              create a standing query
//	GET    /api/v1/subscriptions              list own subscriptions
//	GET    /api/v1/subscriptions/{id}         fetch one
//	DELETE /api/v1/subscriptions/{id}         cancel one
//	GET    /api/v1/subscriptions/{id}/events  consume events (long-poll/SSE)
//
// Creation is admitted under the Write class (PR 5 machinery), so a
// platform under write pressure sheds new standing queries before they
// cost matcher work; a full registry or exhausted per-user quota answers
// the overload contract (503/429 + Retry-After). Event consumption
// supports plain JSON long-poll and SSE, both resumable from a cursor.

// subQuotaRetryAfter is the Retry-After hint when a subscription is shed
// for capacity: quota frees only when TTLs lapse or owners delete, so the
// hint is coarser than the write-path token refill.
const subQuotaRetryAfter = 5 * time.Second

func (p *Platform) handleSubscriptionCreate(w http.ResponseWriter, r *http.Request) {
	var req wire.SubscriptionRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	uid, err := p.Users.Authenticate(req.Token)
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return
	}
	region := geo.Rect{MinLat: req.MinLat, MinLon: req.MinLon, MaxLat: req.MaxLat, MaxLon: req.MaxLon}
	sub, err := p.PubSub.Add(uid, region, req.Keywords, time.Duration(req.TTLSeconds)*time.Second)
	switch {
	case errors.Is(err, pubsub.ErrRegistryFull):
		writeOverloaded(w, r, http.StatusServiceUnavailable, subQuotaRetryAfter, err.Error())
		return
	case errors.Is(err, pubsub.ErrUserQuota):
		writeOverloaded(w, r, http.StatusTooManyRequests, subQuotaRetryAfter, err.Error())
		return
	case err != nil:
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/api/v1/subscriptions/"+sub.ID)
	writeJSON(w, http.StatusCreated, sub)
}

// authSubscriptionUser authenticates the ?token= query parameter.
func (p *Platform) authSubscriptionUser(w http.ResponseWriter, r *http.Request) (int64, bool) {
	uid, err := p.Users.Authenticate(r.URL.Query().Get("token"))
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return 0, false
	}
	return uid, true
}

func (p *Platform) handleSubscriptionList(w http.ResponseWriter, r *http.Request) {
	uid, ok := p.authSubscriptionUser(w, r)
	if !ok {
		return
	}
	pp, err := parsePageParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writePage(w, p.PubSub.List(uid), pp)
}

func (p *Platform) handleSubscriptionGet(w http.ResponseWriter, r *http.Request) {
	uid, ok := p.authSubscriptionUser(w, r)
	if !ok {
		return
	}
	sub, err := p.PubSub.Get(uid, r.PathValue("id"))
	if err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sub)
}

func (p *Platform) handleSubscriptionDelete(w http.ResponseWriter, r *http.Request) {
	uid, ok := p.authSubscriptionUser(w, r)
	if !ok {
		return
	}
	if err := p.PubSub.Remove(uid, r.PathValue("id")); err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Long-poll / SSE limits of the events endpoint.
const (
	// maxEventWait clamps the ?wait_ms= long-poll hold.
	maxEventWait = 30 * time.Second
	// ssePollWait is the per-iteration poll timeout of an SSE stream; each
	// expiry emits a keep-alive comment so proxies don't cut the stream.
	ssePollWait = 15 * time.Second
	// defaultEventLimit is the page size when ?limit= is absent.
	defaultEventLimit = 100
)

// eventCursor parses the resume cursor from ?cursor= or (for SSE
// reconnects) the Last-Event-ID header.
func eventCursor(r *http.Request) (uint64, error) {
	s := r.URL.Query().Get("cursor")
	if s == "" {
		s = r.Header.Get("Last-Event-ID")
	}
	if s == "" {
		return 0, nil
	}
	cur, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("core: invalid cursor %q", s)
	}
	return cur, nil
}

func (p *Platform) handleSubscriptionEvents(w http.ResponseWriter, r *http.Request) {
	uid, ok := p.authSubscriptionUser(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	cursor, err := eventCursor(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	limit := defaultEventLimit
	if l := r.URL.Query().Get("limit"); l != "" {
		v, err := strconv.Atoi(l)
		if err != nil || v < 1 || v > maxPageLimit {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid limit %q (want 1..%d)", l, maxPageLimit))
			return
		}
		limit = v
	}
	// Existence/ownership check up front so a bad id is a clean 404 before
	// any long-poll or stream setup.
	if _, err := p.PubSub.Get(uid, id); err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	if acceptsEventStream(r) {
		p.serveEventStream(w, r, uid, id, cursor)
		return
	}
	var wait time.Duration
	if ms := r.URL.Query().Get("wait_ms"); ms != "" {
		v, err := strconv.Atoi(ms)
		if err != nil || v < 0 {
			writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid wait_ms %q", ms))
			return
		}
		// Clamp before the multiply: a huge v would overflow Duration.
		wait = time.Duration(min(int64(v), maxEventWait.Milliseconds())) * time.Millisecond
	}
	events, next, err := p.PubSub.Poll(r.Context(), uid, id, cursor, limit, wait)
	switch {
	case errors.Is(err, pubsub.ErrNotFound):
		writeErr(w, r, http.StatusNotFound, err)
		return
	case err != nil:
		// Client went away mid-poll; nothing useful can be written.
		return
	}
	if events == nil {
		events = []pubsub.Event{}
	}
	writeJSON(w, http.StatusOK, wire.Page[pubsub.Event]{Items: events, NextCursor: strconv.FormatUint(next, 10)})
}

// acceptsEventStream reports whether the request negotiates SSE: any
// Accept member whose media type is text/event-stream (q-params ignored).
func acceptsEventStream(r *http.Request) bool {
	for _, accept := range r.Header.Values("Accept") {
		for _, item := range strings.Split(accept, ",") {
			if i := strings.IndexByte(item, ';'); i >= 0 {
				item = item[:i]
			}
			if strings.TrimSpace(item) == "text/event-stream" {
				return true
			}
		}
	}
	return false
}

// serveEventStream answers GET .../events as a Server-Sent-Events stream:
//
//	id: <seq>
//	event: checkin
//	data: {...event json...}
//
// The id field makes the stream resumable — a reconnecting client sends
// Last-Event-ID (or ?cursor=) and continues after the last frame it saw.
// The stream ends when the client disconnects or the subscription is
// deleted/expires (a final "gone" event announces the latter).
func (p *Platform) serveEventStream(w http.ResponseWriter, r *http.Request, uid int64, id string, cursor uint64) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErrCode(w, r, http.StatusNotAcceptable, codeBadRequest, "core: streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		events, next, err := p.PubSub.Poll(r.Context(), uid, id, cursor, defaultEventLimit, ssePollWait)
		switch {
		case errors.Is(err, pubsub.ErrNotFound):
			fmt.Fprint(w, "event: gone\ndata: {}\n\n")
			flusher.Flush()
			return
		case err != nil: // client disconnected
			return
		}
		if len(events) == 0 {
			// Poll timed out: emit a keep-alive comment and go around.
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
			continue
		}
		for _, e := range events {
			payload, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: checkin\ndata: %s\n\n", e.Seq, payload)
		}
		flusher.Flush()
		cursor = next
	}
}

// handleUserBlogList serves GET /users/{id}/blogs. The listing is always
// the uniform page envelope; only the authenticated owner may list their
// blogs.
func (p *Platform) handleUserBlogList(w http.ResponseWriter, r *http.Request) {
	uid, ok := p.authBlogOwner(w, r)
	if !ok {
		return
	}
	pp, err := parsePageParams(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writePage(w, p.Blogs.ListUser(uid), pp)
}

// handleUserBlogGet serves GET /users/{id}/blogs/{day}.
func (p *Platform) handleUserBlogGet(w http.ResponseWriter, r *http.Request) {
	uid, ok := p.authBlogOwner(w, r)
	if !ok {
		return
	}
	day, err := parseDay(r.PathValue("day"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	blog, found := p.Blogs.Get(uid, day)
	if !found {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("core: no blog for %s", r.PathValue("day")))
		return
	}
	writeJSON(w, http.StatusOK, blog)
}

// authBlogOwner authenticates ?token= and verifies it owns the {id} path
// segment: blog resources are private, so a token for a different user is
// an authorization failure, not a 404 probe oracle.
func (p *Platform) authBlogOwner(w http.ResponseWriter, r *http.Request) (int64, bool) {
	uid, err := p.Users.Authenticate(r.URL.Query().Get("token"))
	if err != nil {
		writeErr(w, r, http.StatusUnauthorized, err)
		return 0, false
	}
	pathID, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("core: invalid user id %q", r.PathValue("id")))
		return 0, false
	}
	if pathID != uid {
		writeErrCode(w, r, http.StatusUnauthorized, codeUnauthorized,
			"core: token does not own this user's blogs")
		return 0, false
	}
	return uid, true
}
