package obs

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Span is one timed operation inside a trace. Spans form a tree; children
// may be created concurrently (one per region coprocessor), so child
// append and attribute writes are mutex-guarded. Every method tolerates a
// nil receiver: code paths that run outside a traced request (tests,
// batch jobs, benchmarks) pay only a nil check.
type Span struct {
	name  string
	start int64 // UnixNano

	mu       sync.Mutex
	end      int64 // UnixNano; 0 while running
	attrs    []Attr
	children []*Span
}

// Attr is one span annotation.
type Attr struct {
	Key   string
	Value string
}

// Child starts a sub-span. Returns nil when the receiver is nil, so
// untraced paths chain without checks.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now().UnixNano()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End marks the span finished; the first call wins.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end == 0 {
		s.end = time.Now().UnixNano()
	}
	s.mu.Unlock()
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetAttrInt annotates the span with an integer value.
func (s *Span) SetAttrInt(key string, v int64) {
	s.SetAttr(key, strconv.FormatInt(v, 10))
}

// Trace is one request's span tree, keyed by the propagated request ID.
type Trace struct {
	id   string
	root *Span
}

// NewTrace starts a trace whose root span is named rootName.
func NewTrace(id, rootName string) *Trace {
	return &Trace{id: id, root: &Span{name: rootName, start: time.Now().UnixNano()}}
}

// Root returns the root span.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span.
func (t *Trace) Finish() {
	if t != nil {
		t.root.End()
	}
}

// SpanView is the JSON form of one span, offsets relative to the trace
// start so the tree reads as a waterfall.
type SpanView struct {
	Name string `json:"name"`
	// StartMicros is the span's start offset from the trace start.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span's duration (running spans report the
	// duration up to the snapshot).
	DurationMicros int64             `json:"duration_us"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []SpanView        `json:"children,omitempty"`
}

// TraceView is the JSON form served by GET /api/v1/queries/{id}/trace.
type TraceView struct {
	RequestID      string   `json:"request_id"`
	DurationMicros int64    `json:"duration_us"`
	Root           SpanView `json:"root"`
}

// View snapshots the span tree. Safe to call while spans are still
// running (their duration is measured up to now).
func (t *Trace) View() TraceView {
	root := t.root.view(t.root.start)
	return TraceView{RequestID: t.id, DurationMicros: root.DurationMicros, Root: root}
}

func (s *Span) view(base int64) SpanView {
	s.mu.Lock()
	end := s.end
	if end == 0 {
		end = time.Now().UnixNano()
	}
	v := SpanView{
		Name:           s.name,
		StartMicros:    (s.start - base) / 1e3,
		DurationMicros: (end - s.start) / 1e3,
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			v.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		v.Children = append(v.Children, c.view(base))
	}
	return v
}

type spanKey struct{}

// ContextWithSpan attaches the current span to the context; downstream
// layers create children from it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's current span, or nil (all Span
// methods are nil-safe).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceStore keeps the most recent completed traces keyed by request ID —
// a bounded ring: putting the capacity+1'th trace evicts the oldest.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	m     map[string]*Trace
	order []string
}

// NewTraceStore creates a store holding up to capacity traces
// (capacity < 1 defaults to 256).
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 256
	}
	return &TraceStore{cap: capacity, m: make(map[string]*Trace, capacity)}
}

// Put stores a completed trace, evicting the oldest when full. A nil trace
// is ignored; re-putting an ID replaces the stored trace.
func (ts *TraceStore) Put(t *Trace) {
	if t == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.m[t.id]; !ok {
		for len(ts.order) >= ts.cap {
			oldest := ts.order[0]
			ts.order = ts.order[1:]
			delete(ts.m, oldest)
		}
		ts.order = append(ts.order, t.id)
	}
	ts.m[t.id] = t
}

// Get returns the trace for the request ID.
func (ts *TraceStore) Get(id string) (*Trace, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t, ok := ts.m[id]
	return t, ok
}
