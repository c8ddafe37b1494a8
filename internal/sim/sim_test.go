package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	must(t, e.At(3, func() { order = append(order, 3) }))
	must(t, e.At(1, func() { order = append(order, 1) }))
	must(t, e.At(2, func() { order = append(order, 2) }))
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Errorf("final clock = %v, want 3", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineStableOrderAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		must(t, e.At(5, func() { order = append(order, i) }))
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events at the same timestamp must fire in scheduling order, got %v", order)
	}
}

func TestEngineRejectsPastAndNil(t *testing.T) {
	e := NewEngine()
	must(t, e.At(10, func() {}))
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := e.At(5, func() {}); err == nil {
		t.Error("scheduling in the past must fail")
	}
	if err := e.At(20, nil); err == nil {
		t.Error("nil event function must fail")
	}
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			must(t, e.At(e.now+1, recurse))
		}
	}
	must(t, e.At(0, recurse))
	end, err := e.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if depth != 100 || end != 99 {
		t.Errorf("depth=%d end=%v, want 100 and 99", depth, end)
	}
}

func TestEngineMaxEventsGuard(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { _ = e.At(e.now+1, loop) }
	must(t, e.At(0, loop))
	if _, err := e.Run(50); err == nil {
		t.Error("expected runaway-loop error")
	}
}

func TestResourceSingleServerSequencesFCFS(t *testing.T) {
	e := NewEngine()
	r, err := NewResource(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	var finishes []Time
	for i := 0; i < 3; i++ {
		if _, err := r.Submit(0, 2, func(at Time) { finishes = append(finishes, at) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []Time{2, 4, 6}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
}

func TestResourceMultiServerParallelism(t *testing.T) {
	e := NewEngine()
	r, err := NewResource(e, 4)
	if err != nil {
		t.Fatal(err)
	}
	var maxFinish Time
	for i := 0; i < 8; i++ {
		if _, err := r.Submit(0, 3, func(at Time) {
			if at > maxFinish {
				maxFinish = at
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// 8 unit tasks of 3s on 4 servers = two waves = 6s makespan.
	if maxFinish != 6 {
		t.Errorf("makespan = %v, want 6", maxFinish)
	}
}

func TestResourceReadyAtDelaysStart(t *testing.T) {
	e := NewEngine()
	r, _ := NewResource(e, 1)
	finish, err := r.Submit(10, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if finish != 15 {
		t.Errorf("finish = %v, want 15", finish)
	}
}

func TestResourceRejectsBadInput(t *testing.T) {
	e := NewEngine()
	if _, err := NewResource(e, 0); err == nil {
		t.Error("zero servers must fail")
	}
	r, _ := NewResource(e, 1)
	if _, err := r.Submit(0, -1, nil); err == nil {
		t.Error("negative service must fail")
	}
}

// TestEngineResetIdlesEverything: a reset engine is indistinguishable from a
// new one with the same resources — clock at zero, every server free.
func TestEngineResetIdlesEverything(t *testing.T) {
	e := NewEngine()
	a, _ := NewResource(e, 1)
	b, _ := NewResource(e, 2)
	run := func() (fa, fb, end Time) {
		fa, _ = a.Submit(0, 2, func(Time) {})
		_, _ = b.Submit(0, 3, nil)
		_, _ = b.Submit(0, 3, nil)
		fb, _ = b.Submit(1, 3, func(Time) {})
		end, err := e.Run(0)
		must(t, err)
		return fa, fb, end
	}
	fa, fb, end := run()
	if fa != 2 || fb != 6 || end != 6 {
		t.Fatalf("first run: %v %v %v, want 2 6 6", fa, fb, end)
	}
	e.Reset()
	if e.now != 0 {
		t.Errorf("clock after Reset = %v, want 0", e.now)
	}
	if fa2, fb2, end2 := run(); fa2 != fa || fb2 != fb || end2 != end {
		t.Errorf("run after Reset: %v %v %v, want %v %v %v", fa2, fb2, end2, fa, fb, end)
	}
}

// TestResourceMakespanMatchesGreedyOracle cross-checks the resource
// scheduler against an independent greedy multi-processor schedule.
func TestResourceMakespanMatchesGreedyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		servers := 1 + rng.Intn(8)
		n := 1 + rng.Intn(40)
		services := make([]float64, n)
		for i := range services {
			services[i] = rng.Float64() * 10
		}

		// Oracle: assign each task (in order) to the earliest-free server.
		free := make([]float64, servers)
		var wantMakespan float64
		for _, s := range services {
			best := 0
			for i := 1; i < servers; i++ {
				if free[i] < free[best] {
					best = i
				}
			}
			free[best] += s
			if free[best] > wantMakespan {
				wantMakespan = free[best]
			}
		}

		e := NewEngine()
		r, _ := NewResource(e, servers)
		var gotMakespan Time
		for _, s := range services {
			if _, err := r.Submit(0, s, func(at Time) {
				if at > gotMakespan {
					gotMakespan = at
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotMakespan-wantMakespan) > 1e-9 {
			t.Fatalf("trial %d: makespan %v, oracle %v (servers=%d n=%d)", trial, gotMakespan, wantMakespan, servers, n)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
