// Package cluster models the deployment substrate of the platform: a set of
// worker nodes (the HBase/Hadoop cluster in the paper) plus a web-server
// farm, connected by a network with a fixed round-trip cost.
//
// The cluster is a *timing* model layered on the discrete-event simulator in
// internal/sim: real code executes against real data structures, and the
// cluster converts the work it performed (rows scanned, tuples aggregated,
// bytes shipped) into simulated latency with per-core FCFS queueing. This is
// what lets a single-CPU machine reproduce the 4/8/16-node scaling curves of
// the paper's Figures 2 and 3.
//
// Simulated time is a value, not state: a Cluster only describes the
// deployment, and Cluster.Simulate, the one way to obtain simulated time, runs
// each simulation on a Session of its own, so a simulated latency is a
// function of the work it was given.
package cluster

import (
	"fmt"
	"sync"

	"modissense/internal/sim"
)

// Config describes a simulated cluster deployment.
type Config struct {
	// Nodes is the number of worker VMs (the paper uses 4, 8 and 16).
	Nodes int
	// CoresPerNode is the number of parallel task slots per node (the
	// paper's VMs are dual-core).
	CoresPerNode int
	// WebServers is the number of frontend web servers; the paper
	// determined two 4-core servers suffice.
	WebServers int
	// WebServerCores is the number of cores per web server.
	WebServerCores int
	// Cost holds the calibrated cost model.
	Cost CostModel
}

// DefaultConfig mirrors the paper's testbed: dual-core worker VMs and two
// 4-core web servers.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:          nodes,
		CoresPerNode:   2,
		WebServers:     2,
		WebServerCores: 4,
		Cost:           DefaultCostModel(),
	}
}

// Cluster is a validated description of a simulated deployment — topology
// and cost model — safe for concurrent use. Nothing in it changes after New
// but its free list of idle sessions.
type Cluster struct {
	cfg Config

	mu   sync.Mutex
	idle []*Session // each drained without error and reset
}

// New validates cfg and returns the cluster it describes.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", cfg.Nodes)
	}
	if cfg.CoresPerNode < 1 {
		return nil, fmt.Errorf("cluster: need at least one core per node, got %d", cfg.CoresPerNode)
	}
	if cfg.WebServers < 1 {
		return nil, fmt.Errorf("cluster: need at least one web server, got %d", cfg.WebServers)
	}
	if cfg.WebServerCores < 1 {
		return nil, fmt.Errorf("cluster: need at least one web-server core, got %d", cfg.WebServerCores)
	}
	if err := cfg.Cost.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg}, nil
}

// Config returns the deployment configuration.
func (c *Cluster) Config() Config { return c.cfg }

// NumNodes returns the worker-node count.
func (c *Cluster) NumNodes() int { return c.cfg.Nodes }

// maxEvents bounds one simulation. A generous guard: queries spawn
// O(regions) events each; anything past tens of millions of events indicates
// a scheduling bug.
const maxEvents = 50_000_000

// Simulate runs one simulation and returns the simulated time at which the
// last work item submitted to it finishes. schedule receives a private
// session — clock at zero, every resource idle — and submits the first work
// items; their completion callbacks submit the rest while Simulate drains the
// event queue. Work queues only behind work of the same call (the members of
// a concurrent batch, the tasks of a job: that is where contention is
// modelled). The first error a Session.Submit met, or the event guard's,
// fails the simulation. The session is valid only until Simulate returns.
func (c *Cluster) Simulate(schedule func(*Session)) (sim.Time, error) {
	s, err := c.idleSession()
	if err != nil {
		return 0, err
	}
	schedule(s)
	_, err = s.eng.Run(maxEvents)
	if s.err != nil {
		err = s.err
	}
	if err != nil {
		// s is dropped with whatever the failure left in it.
		return 0, fmt.Errorf("cluster: simulation failed: %w", err)
	}
	end := s.end
	s.eng.Reset()
	s.nextWeb, s.end = 0, 0
	c.mu.Lock()
	c.idle = append(c.idle, s)
	c.mu.Unlock()
	return end, nil
}

// idleSession takes a recycled session off the free list, or builds one:
// steady-state simulations allocate no engine, resource or server array.
func (c *Cluster) idleSession() (*Session, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		s := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()
	cfg := c.cfg
	s := &Session{
		eng:   sim.NewEngine(),
		nodes: make([]sim.Resource, cfg.Nodes),
		web:   make([]sim.Resource, cfg.WebServers),
	}
	var err error
	for i := range s.nodes {
		if s.nodes[i], err = sim.NewResource(s.eng, cfg.CoresPerNode); err != nil {
			return nil, err
		}
	}
	for i := range s.web {
		if s.web[i], err = sim.NewResource(s.eng, cfg.WebServerCores); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Session is everything one simulation mutates: a private clock and event
// queue, and one FCFS resource per worker node and per web server. It is
// single-goroutine.
type Session struct {
	eng     *sim.Engine
	nodes   []sim.Resource
	web     []sim.Resource
	nextWeb int      // round-robin load-balancer cursor
	end     sim.Time // when the last submitted work item finishes
	err     error    // the first error a Submit met
}

// Node returns the resource for worker node i (modulo the node count, so
// any region→node assignment hashes safely).
func (s *Session) Node(i int) sim.Resource {
	if i < 0 {
		i = -i
	}
	return s.nodes[i%len(s.nodes)]
}

// PickWebServer returns the next web server chosen by the round-robin load
// balancer that fronts the farm.
func (s *Session) PickWebServer() sim.Resource {
	w := s.web[s.nextWeb%len(s.web)]
	s.nextWeb++
	return w
}

// Submit enqueues a work item on r that becomes ready at readyAt, occupies
// one of r's servers for service seconds, and then calls done (which may be
// nil) with the completion time, which it also returns. An item the kernel
// rejects (a negative service time: a bug in the cost model) fails the whole
// simulation: Simulate returns the first such error.
func (s *Session) Submit(r sim.Resource, readyAt sim.Time, service float64, done func(sim.Time)) sim.Time {
	finish, err := r.Submit(readyAt, service, done)
	if err != nil && s.err == nil {
		s.err = err
	}
	s.end = max(s.end, finish)
	return finish
}
