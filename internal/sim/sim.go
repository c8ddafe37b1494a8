// Package sim is a small discrete-event simulation kernel: a virtual clock,
// an event queue and multi-server FCFS resources.
//
// The platform uses it to reproduce the paper's cluster-scaling experiments
// on a single machine: all data-path code (scans, coprocessors, merges)
// executes for real, and sim converts the measured work volumes into
// latency under a configurable cost model with authentic queueing behaviour.
// Simulated time is expressed in float64 seconds.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point in simulated time, in seconds since simulation start.
type Time = float64

// Engine owns everything a simulation mutates: the virtual clock, the pending
// event queue and the servers of every Resource created on it. An Engine is
// single-goroutine: processes are plain callbacks scheduled at absolute
// times, and resources sequence work by chaining callbacks. This keeps the
// kernel deterministic and allocation-light.
type Engine struct {
	now   Time
	queue eventHeap
	seq   uint64 // tie-breaker preserving scheduling order at equal times
	fired uint64
	// freeAt[i] is the time server i becomes idle; each Resource owns a
	// contiguous run of it, so Reset idles them all at once.
	freeAt []Time
}

// NewEngine returns an Engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset returns a drained engine to time zero with every resource idle,
// keeping its storage, so one engine can serve run after run with no run
// seeing what an earlier one left behind.
func (e *Engine) Reset() {
	e.now, e.seq, e.fired = 0, 0, 0
	clear(e.freeAt)
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error: the kernel would otherwise silently reorder causality.
func (e *Engine) At(t Time, fn func()) error {
	if t < e.now {
		return fmt.Errorf("sim: cannot schedule event at %.9f before now %.9f", t, e.now)
	}
	if fn == nil {
		return fmt.Errorf("sim: nil event function")
	}
	e.seq++
	heap.Push(&e.queue, &event{at: t, seq: e.seq, fn: fn})
	return nil
}

// Run executes events until the queue drains, returning the final clock
// value. maxEvents bounds the run as a safety valve (0 means no bound).
func (e *Engine) Run(maxEvents uint64) (Time, error) {
	for len(e.queue) > 0 {
		if maxEvents > 0 && e.fired >= maxEvents {
			return e.now, fmt.Errorf("sim: exceeded %d events; likely a scheduling loop", maxEvents)
		}
		ev := heap.Pop(&e.queue).(*event)
		if ev.at < e.now {
			return e.now, fmt.Errorf("sim: event at %.9f fired after clock reached %.9f", ev.at, e.now)
		}
		e.now = ev.at
		e.fired++
		ev.fn()
	}
	return e.now, nil
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Resource models a station with a fixed number of identical servers and a
// FIFO queue — e.g. one cluster node with C cores. Work items request a
// service time; when a server becomes free the item occupies it for that
// long and then its completion callback fires. A Resource is a handle on its
// engine's servers first … first+servers-1; copies are the same station.
type Resource struct {
	eng            *Engine
	first, servers int
}

// NewResource creates a resource with the given number of idle servers.
func NewResource(eng *Engine, servers int) (Resource, error) {
	if servers < 1 {
		return Resource{}, fmt.Errorf("sim: resource needs at least one server, got %d", servers)
	}
	r := Resource{eng: eng, first: len(eng.freeAt), servers: servers}
	eng.freeAt = append(eng.freeAt, make([]Time, servers)...)
	return r, nil
}

// Submit enqueues a work item that becomes ready at readyAt, needs service
// seconds of a single server, and calls done(completionTime) when finished.
// It returns the completion time. FCFS order is the order of Submit calls:
// because the kernel is single-threaded, placement is computed eagerly — each
// item takes the earliest-free server — which is exactly FCFS with C servers,
// so no explicit queue structure is needed.
func (r Resource) Submit(readyAt Time, service float64, done func(Time)) (Time, error) {
	if service < 0 {
		return 0, fmt.Errorf("sim: negative service time %.9f", service)
	}
	if readyAt < r.eng.now {
		readyAt = r.eng.now
	}
	freeAt := r.eng.freeAt[r.first : r.first+r.servers]
	// Pick the server that frees up first.
	best := 0
	for i := 1; i < len(freeAt); i++ {
		if freeAt[i] < freeAt[best] {
			best = i
		}
	}
	start := math.Max(readyAt, freeAt[best])
	finish := start + service
	freeAt[best] = finish
	if done != nil {
		if err := r.eng.At(finish, func() { done(finish) }); err != nil {
			return 0, err
		}
	}
	return finish, nil
}
