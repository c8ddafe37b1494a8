package core

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"time"

	"modissense/internal/admit"
	"modissense/internal/exec"
	"modissense/internal/obs"
)

// The REST API is a single versioned route table: every endpoint lives
// under /api/v1/ and nowhere else. API.md documents the table.
//
// Every request is wrapped in one middleware stack: an X-Request-ID is
// propagated (or generated), a trace is recorded into Platform.Traces keyed
// by that ID, and per-route request counts, status classes and latency land
// in the shared obs registry. Route names are the fixed enum below — label
// values never come from user input.

// route is one row of the API route table.
type route struct {
	method string
	// path is the route's pattern suffix under /api/v1.
	path string
	// label names the route in metrics; values are compile-time constants.
	label obs.Label
	// noTrace keeps the route out of the trace store (introspection
	// endpoints would otherwise evict real query traces).
	noTrace bool
	// admitted routes pass the overload-admission controller before their
	// handler runs and tag their context with the class's exec priority;
	// cheap CRUD/introspection routes bypass admission entirely.
	admitted bool
	// class is the admission priority class of an admitted route.
	class   admit.Class
	handler func(p *Platform) http.HandlerFunc
}

// routeTable is the API surface. Adding an endpoint means adding one row.
var routeTable = []route{
	{method: "POST", path: "/signin", label: obs.L("route", "signin"), handler: func(p *Platform) http.HandlerFunc { return p.handleSignIn }},
	{method: "POST", path: "/link", label: obs.L("route", "link"), handler: func(p *Platform) http.HandlerFunc { return p.handleLink }},
	{method: "GET", path: "/friends", label: obs.L("route", "friends"), handler: func(p *Platform) http.HandlerFunc { return p.handleFriends }},
	{method: "POST", path: "/search", label: obs.L("route", "search"), admitted: true, class: admit.Interactive,
		handler: func(p *Platform) http.HandlerFunc { return p.handleSearch }},
	{method: "GET", path: "/trending", label: obs.L("route", "trending"), admitted: true, class: admit.Batch,
		handler: func(p *Platform) http.HandlerFunc { return p.handleTrending }},
	{method: "GET", path: "/pois/{id}", label: obs.L("route", "poi"), handler: func(p *Platform) http.HandlerFunc { return p.handlePOI }},
	{method: "POST", path: "/gps", label: obs.L("route", "gps"), handler: func(p *Platform) http.HandlerFunc { return p.handleGPS }},
	{method: "POST", path: "/checkins", label: obs.L("route", "checkins"), admitted: true, class: admit.Write,
		handler: func(p *Platform) http.HandlerFunc { return p.handleCheckins }},
	{method: "POST", path: "/blog/generate", label: obs.L("route", "blog_generate"), handler: func(p *Platform) http.HandlerFunc { return p.handleBlogGenerate }},
	{method: "GET", path: "/users/{id}/blogs", label: obs.L("route", "user_blogs"),
		handler: func(p *Platform) http.HandlerFunc { return p.handleUserBlogList }},
	{method: "GET", path: "/users/{id}/blogs/{day}", label: obs.L("route", "user_blog"),
		handler: func(p *Platform) http.HandlerFunc { return p.handleUserBlogGet }},
	{method: "POST", path: "/subscriptions", label: obs.L("route", "sub_create"), admitted: true, class: admit.Write,
		handler: func(p *Platform) http.HandlerFunc { return p.handleSubscriptionCreate }},
	{method: "GET", path: "/subscriptions", label: obs.L("route", "sub_list"),
		handler: func(p *Platform) http.HandlerFunc { return p.handleSubscriptionList }},
	{method: "GET", path: "/subscriptions/{id}", label: obs.L("route", "sub_get"),
		handler: func(p *Platform) http.HandlerFunc { return p.handleSubscriptionGet }},
	{method: "DELETE", path: "/subscriptions/{id}", label: obs.L("route", "sub_delete"),
		handler: func(p *Platform) http.HandlerFunc { return p.handleSubscriptionDelete }},
	{method: "GET", path: "/subscriptions/{id}/events", label: obs.L("route", "sub_events"), noTrace: true,
		handler: func(p *Platform) http.HandlerFunc { return p.handleSubscriptionEvents }},
	{method: "POST", path: "/admin/collect", label: obs.L("route", "collect"), handler: func(p *Platform) http.HandlerFunc { return p.handleCollect }},
	{method: "POST", path: "/admin/hotin", label: obs.L("route", "hotin"), handler: func(p *Platform) http.HandlerFunc { return p.handleHotIn }},
	{method: "POST", path: "/admin/events", label: obs.L("route", "events"), admitted: true, class: admit.Batch,
		handler: func(p *Platform) http.HandlerFunc { return p.handleEvents }},
	{method: "POST", path: "/admin/pipeline", label: obs.L("route", "pipeline"), admitted: true, class: admit.Batch,
		handler: func(p *Platform) http.HandlerFunc { return p.handlePipeline }},
	{method: "GET", path: "/analytics/categories", label: obs.L("route", "categories"), handler: func(p *Platform) http.HandlerFunc { return p.handleCategoryAnalytics }},
	{method: "GET", path: "/stats", label: obs.L("route", "stats"), handler: func(p *Platform) http.HandlerFunc { return p.handleStats }},
	{method: "GET", path: "/queries/{id}/trace", label: obs.L("route", "query_trace"), noTrace: true,
		handler: func(p *Platform) http.HandlerFunc { return p.handleQueryTrace }},
}

// NewHandler returns the platform's REST API: the versioned route table
// under /api/v1/ and the Prometheus exposition at /metrics. The JSON formats
// mirror the request/response contract the paper's web and mobile clients
// use; any client that speaks them integrates seamlessly (§2, "this feature
// enables the seamless integration of more client applications"). See
// API.md for the full route table.
func NewHandler(p *Platform) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		mux.HandleFunc(rt.method+" /api/v1"+rt.path, p.instrument(rt, rt.handler(p)))
	}
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	return mux
}

// statusWriter captures the response status for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the wrapped writer so streaming handlers (SSE) can
// push frames through the middleware stack.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument builds the middleware stack of one route: request-ID
// propagation, tracing and per-route metrics. Metric handles resolve once
// per route at handler construction; the request path touches only atomics.
func (p *Platform) instrument(rt route, h http.HandlerFunc) http.HandlerFunc {
	reg := obs.Default()
	classCounters := map[int]*obs.Counter{
		1: reg.Counter("http_requests_total", "Requests served by route and status class.", rt.label, obs.L("class", "1xx")),
		2: reg.Counter("http_requests_total", "Requests served by route and status class.", rt.label, obs.L("class", "2xx")),
		3: reg.Counter("http_requests_total", "Requests served by route and status class.", rt.label, obs.L("class", "3xx")),
		4: reg.Counter("http_requests_total", "Requests served by route and status class.", rt.label, obs.L("class", "4xx")),
		5: reg.Counter("http_requests_total", "Requests served by route and status class.", rt.label, obs.L("class", "5xx")),
	}
	latency := reg.Histogram("http_request_seconds", "Request latency by route.", obs.LatencyBuckets(), rt.label)
	routeName := "http:" + rt.label.Value
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get(requestIDHeader)
		if reqID == "" {
			reqID = newRequestID()
		}
		w.Header().Set(requestIDHeader, reqID)
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
		if rt.admitted {
			ctx = exec.WithPriority(ctx, rt.class.Priority())
		}
		var tr *obs.Trace
		if !rt.noTrace {
			tr = obs.NewTrace(reqID, routeName)
			ctx = obs.ContextWithSpan(ctx, tr.Root())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		rr := r.WithContext(ctx)
		if dec, rejected := p.admitCheck(rt, rr); rejected {
			// Shed up front: the handler never runs, no query work is
			// queued, and the client gets a well-formed overload answer
			// with a Retry-After hint.
			obs.SpanFromContext(ctx).SetAttr("admit", dec.Reason)
			status := http.StatusServiceUnavailable
			if dec.Reason == admit.ReasonRate {
				status = http.StatusTooManyRequests
			}
			writeOverloaded(sw, rr, status, dec.RetryAfter,
				"core: overloaded: admission rejected ("+dec.Reason+")")
		} else {
			h(sw, rr)
		}
		if tr != nil {
			tr.Finish()
			p.Traces.Put(tr)
		}
		latency.ObserveDuration(time.Since(start))
		if c := classCounters[sw.status/100]; c != nil {
			c.Inc()
		}
	}
}

// admitCheck consults the admission controller for admitted routes. The
// remaining-deadline budget handed to the controller is the tighter of the
// configured query timeout and the request's own deadline, so the
// deadline-aware check predicts against the same budget the handler will
// run under.
func (p *Platform) admitCheck(rt route, r *http.Request) (admit.Decision, bool) {
	if !rt.admitted || p.Admission == nil {
		return admit.Decision{OK: true}, false
	}
	remaining := p.cfg.QueryTimeout
	if dl, ok := r.Context().Deadline(); ok {
		if d := time.Until(dl); remaining <= 0 || d < remaining {
			remaining = d
		}
	}
	dec := p.Admission.Admit(rt.class, remaining)
	return dec, !dec.OK
}

// requestIDHeader carries the request ID end to end; responses always echo
// it so a client can fetch the request's trace afterwards.
const requestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// requestIDFrom returns the request ID the middleware stored in the context
// ("" outside an instrumented request).
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// newRequestID returns a fresh 16-hex-digit request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is in much deeper trouble;
		// a constant ID keeps the request serviceable.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// handleMetrics serves the shared registry in Prometheus text format.
func (p *Platform) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.TextContentType)
	_ = obs.Default().WritePrometheus(w)
}

// handleQueryTrace serves the span tree of a completed request by its
// X-Request-ID.
func (p *Platform) handleQueryTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := p.Traces.Get(id)
	if !ok {
		writeErrCode(w, r, http.StatusNotFound, "not_found", "core: no trace for request "+id)
		return
	}
	writeJSON(w, http.StatusOK, tr.View())
}
