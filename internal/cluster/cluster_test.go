package cluster

import (
	"math"
	"strings"
	"testing"

	"modissense/internal/sim"
)

// simulate runs schedule on c and fails the test on a simulation error.
func simulate(t *testing.T, c *Cluster, schedule func(*Session)) sim.Time {
	t.Helper()
	end, err := c.Simulate(schedule)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestNewValidatesConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero-nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero-cores", func(c *Config) { c.CoresPerNode = 0 }},
		{"zero-web", func(c *Config) { c.WebServers = 0 }},
		{"zero-web-cores", func(c *Config) { c.WebServerCores = 0 }},
		{"bad-cost", func(c *Config) { c.Cost.RowScan = -1 }},
		{"zero-cost", func(c *Config) { c.Cost = CostModel{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			tc.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("expected config validation error for %s", tc.name)
			}
		})
	}
}

func TestDefaultConfigMatchesPaperTestbed(t *testing.T) {
	cfg := DefaultConfig(16)
	if cfg.Nodes != 16 || cfg.CoresPerNode != 2 {
		t.Errorf("worker VMs should be dual-core: %+v", cfg)
	}
	if cfg.WebServers != 2 || cfg.WebServerCores != 4 {
		t.Errorf("web farm should be two 4-core servers: %+v", cfg)
	}
}

func TestNodeIndexWrapsAndNegatives(t *testing.T) {
	c, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, c, func(s *Session) {
		if s.Node(0) != s.Node(4) {
			t.Error("node index must wrap modulo the node count")
		}
		if s.Node(-1) != s.Node(1) {
			t.Error("negative indexes must map to a valid node")
		}
	})
}

func TestPickWebServerRoundRobin(t *testing.T) {
	c, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	simulate(t, c, func(s *Session) {
		a := s.PickWebServer()
		b := s.PickWebServer()
		if a == b {
			t.Error("consecutive picks should alternate between the two web servers")
		}
		if s.PickWebServer() != a {
			t.Error("third pick should wrap back to the first web server")
		}
	})
}

func TestCoprocessorServiceTimeComposition(t *testing.T) {
	m := DefaultCostModel()
	w := CoprocessorWork{Friends: 100, RowsScanned: 17000, VisitsMatched: 300, CandidatePOIs: 50}
	got := m.CoprocessorServiceTime(w)
	want := m.CoprocessorStart +
		100*m.FriendGet + 17000*m.RowScan + 300*m.Aggregate +
		50*math.Log2(50)*m.SortPerItem
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("service time = %g, want %g", got, want)
	}
	// Zero work should still pay the fixed coprocessor launch cost.
	if m.CoprocessorServiceTime(CoprocessorWork{}) != m.CoprocessorStart {
		t.Error("empty work must cost exactly the launch overhead")
	}
	// One candidate POI needs no sort.
	one := m.CoprocessorServiceTime(CoprocessorWork{CandidatePOIs: 1})
	if one != m.CoprocessorStart {
		t.Errorf("single candidate must not pay sort cost, got %g", one)
	}
}

func TestServiceTimeMonotonicInWork(t *testing.T) {
	m := DefaultCostModel()
	small := m.CoprocessorServiceTime(CoprocessorWork{Friends: 10, RowsScanned: 1000})
	large := m.CoprocessorServiceTime(CoprocessorWork{Friends: 100, RowsScanned: 100000})
	if large <= small {
		t.Errorf("more work must cost more: %g <= %g", large, small)
	}
}

// TestClusterScalingShape runs the same synthetic fan-out workload on 4, 8
// and 16 nodes and asserts the core property behind Figure 2: larger
// clusters finish strictly faster, and the speedup is bounded by the
// parallelism ratio.
func TestClusterScalingShape(t *testing.T) {
	latency := func(nodes int) float64 {
		c, err := New(DefaultConfig(nodes))
		if err != nil {
			t.Fatal(err)
		}
		m := c.Config().Cost
		// 64 region tasks, each scanning 25k rows, fanned out at t=0.
		const regions = 64
		done := 0
		var finish float64
		end := simulate(t, c, func(s *Session) {
			for i := 0; i < regions; i++ {
				service := m.CoprocessorServiceTime(CoprocessorWork{Friends: 90, RowsScanned: 25000, VisitsMatched: 500, CandidatePOIs: 120})
				s.Submit(s.Node(i), 0, service, func(at float64) {
					done++
					if at > finish {
						finish = at
					}
				})
			}
		})
		if done != regions {
			t.Fatalf("only %d/%d tasks completed", done, regions)
		}
		if end != finish {
			t.Fatalf("Simulate returned %g, the last completion was at %g", end, finish)
		}
		return finish
	}

	l4, l8, l16 := latency(4), latency(8), latency(16)
	if !(l4 > l8 && l8 > l16) {
		t.Fatalf("latency must decrease with cluster size: 4→%g 8→%g 16→%g", l4, l8, l16)
	}
	// Perfect scaling bound: 4→16 nodes cannot exceed 4× speedup.
	if l4/l16 > 4.0+1e-9 {
		t.Errorf("speedup %g exceeds the parallelism bound 4", l4/l16)
	}
	// And it should realize most of the available parallelism (> 2×).
	if l4/l16 < 2.0 {
		t.Errorf("speedup %g is implausibly low for a 4x bigger cluster", l4/l16)
	}
}

// TestRunDetectsRunawayScheduling: a callback that resubmits forever is
// stopped by the event guard and reported, not left to spin. The guard is
// lowered from its 50 M events so that it fires in milliseconds.
func TestRunDetectsRunawayScheduling(t *testing.T) {
	c, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.maxEvents != maxEvents {
		t.Fatalf("New sets the event guard to %d, want %d", c.maxEvents, maxEvents)
	}
	c.maxEvents = 100_000
	_, err = c.Simulate(func(s *Session) {
		var loop func(sim.Time)
		loop = func(at sim.Time) { s.Submit(s.Node(0), at, 0.001, loop) }
		loop(0)
	})
	if want := "exceeded 100000 events; likely a scheduling loop"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a runaway simulation returned %v, want the event guard's %q", err, want)
	}
}

// TestSimulateReportsRejectedWork: work the kernel rejects fails the
// simulation with the first such error, whether it was submitted by schedule
// or by a completion callback.
func TestSimulateReportsRejectedWork(t *testing.T) {
	c, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(func(s *Session) { s.Submit(s.Node(0), 0, -1, nil) }); err == nil {
		t.Error("negative service submitted by schedule must fail the simulation")
	}
	_, err = c.Simulate(func(s *Session) {
		s.Submit(s.Node(0), 0, 1, func(at sim.Time) {
			s.Submit(s.Node(1), at, -2, nil)
			s.Submit(s.Node(1), at, -3, nil)
		})
	})
	if err == nil || !strings.Contains(err.Error(), "-2.0") {
		t.Errorf("want the first rejected item's error, got %v", err)
	}
}

// TestSimulateSteadyStateAllocs: after warm-up a simulation of the cache-hit
// shape (parse, then merge, on one web server) allocates its two events and
// their closures and nothing else — no session, engine, resource or server
// array — and a session whose simulation failed is not handed to the next
// caller.
func TestSimulateSteadyStateAllocs(t *testing.T) {
	c, err := New(DefaultConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	cost := c.Config().Cost
	var latency sim.Time
	hit := func(s *Session) {
		web := s.PickWebServer()
		s.Submit(web, 0, cost.WebParse, func(parseDone sim.Time) {
			s.Submit(web, parseDone, cost.MergeServiceTime(10, 10), func(done sim.Time) { latency = done })
		})
	}
	want := simulate(t, c, hit) // warm-up: builds the session
	// Per run: the schedule closure's callbacks (parse, merge), the kernel's
	// two event closures and two events.
	const maxAllocs = 6
	if got := testing.AllocsPerRun(200, func() { simulate(t, c, hit) }); got > maxAllocs {
		t.Errorf("steady-state Simulate allocates %.0f objects, want at most %d", got, maxAllocs)
	}
	if latency != want {
		t.Errorf("recycled session answered %g, the first %g", latency, want)
	}

	// A failed simulation leaves a busy web server and a clock at 100 behind;
	// the next caller must see neither.
	_, err = c.Simulate(func(s *Session) {
		web := s.PickWebServer()
		s.Submit(web, 0, 100, func(sim.Time) {})
		s.Submit(web, 0, -1, nil)
	})
	if err == nil {
		t.Fatal("expected the rejected item to fail the simulation")
	}
	if len(c.idle) != 0 {
		t.Fatalf("a failed session was recycled: %d idle", len(c.idle))
	}
	if simulate(t, c, hit); latency != want {
		t.Errorf("after a failed simulation the answer is %g, want %g", latency, want)
	}
}

func TestMapReduceCosts(t *testing.T) {
	m := DefaultCostModel()
	if m.MapTaskServiceTime(0) != m.TaskStart {
		t.Error("empty map task should cost the task start overhead")
	}
	if m.ReduceTaskServiceTime(1000) <= m.TaskStart {
		t.Error("reduce cost must grow with records")
	}
}
