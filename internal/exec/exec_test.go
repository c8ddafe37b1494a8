package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/obs"
)

func TestGatherOrderingAndValues(t *testing.T) {
	p := NewPool(4)
	tasks := make([]Task, 100)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (interface{}, error) { return i * i, nil }
	}
	res, err := p.Gather(context.Background(), tasks)
	if err != nil {
		t.Fatalf("Gather: %v", err)
	}
	if len(res) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(res), len(tasks))
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("task %d error: %v", i, r.Err)
		}
		if r.Value.(int) != i*i {
			t.Fatalf("task %d: got %v, want %d", i, r.Value, i*i)
		}
	}
}

func TestGatherEmpty(t *testing.T) {
	res, err := NewPool(2).Gather(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty gather: res=%v err=%v", res, err)
	}
}

func TestGatherJoinsAllErrors(t *testing.T) {
	p := NewPool(3)
	errA := errors.New("task A failed")
	errB := errors.New("task B failed")
	tasks := []Task{
		func(context.Context) (interface{}, error) { return nil, errA },
		func(context.Context) (interface{}, error) { return "ok", nil },
		func(context.Context) (interface{}, error) { return nil, errB },
	}
	res, err := p.Gather(context.Background(), tasks)
	if err == nil {
		t.Fatal("want joined error, got nil")
	}
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("joined error missing parts: %v", err)
	}
	if res[1].Err != nil || res[1].Value != "ok" {
		t.Fatalf("successful task result clobbered: %+v", res[1])
	}
}

func TestGatherRecoversPanic(t *testing.T) {
	p := NewPool(2)
	tasks := []Task{
		func(context.Context) (interface{}, error) { panic("boom") },
		func(context.Context) (interface{}, error) { return 7, nil },
	}
	res, err := p.Gather(context.Background(), tasks)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic converted to error, got %v", err)
	}
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), "task panic") {
		t.Fatalf("panicking task result: %+v", res[0])
	}
	if res[1].Err != nil || res[1].Value.(int) != 7 {
		t.Fatalf("sibling task result: %+v", res[1])
	}
}

func TestGatherCancellationSkipsRemaining(t *testing.T) {
	p := NewPool(1) // serial: cancel during task 0 must mark the rest
	ctx, cancel := context.WithCancel(context.Background())
	ran := atomic.Int32{}
	tasks := make([]Task, 10)
	tasks[0] = func(context.Context) (interface{}, error) {
		cancel()
		return 0, nil
	}
	for i := 1; i < len(tasks); i++ {
		tasks[i] = func(context.Context) (interface{}, error) {
			ran.Add(1)
			return nil, nil
		}
	}
	res, err := p.Gather(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in joined error, got %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran after cancellation", ran.Load())
	}
	for i := 1; i < len(res); i++ {
		if !errors.Is(res[i].Err, context.Canceled) {
			t.Fatalf("task %d: err=%v, want context.Canceled", i, res[i].Err)
		}
	}
}

func TestGatherParallelism(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	p := NewPool(2)
	st := &Stats{}
	ctx := obs.WithQueryStats(context.Background(), st)
	// Two tasks that each wait for the other: only completes if both run
	// concurrently on distinct worker goroutines.
	barrier := make(chan struct{})
	var arrivals atomic.Int32
	wait := func(context.Context) (interface{}, error) {
		if arrivals.Add(1) == 2 {
			close(barrier)
		}
		select {
		case <-barrier:
			return nil, nil
		case <-time.After(10 * time.Second):
			return nil, fmt.Errorf("barrier timeout: tasks did not overlap")
		}
	}
	if _, err := p.Gather(ctx, []Task{wait, wait}); err != nil {
		t.Fatalf("Gather: %v", err)
	}
	snap := st.Snapshot()
	if snap.Goroutines < 2 {
		t.Fatalf("Goroutines = %d, want >= 2", snap.Goroutines)
	}
	if snap.Tasks != 2 {
		t.Fatalf("Tasks = %d, want 2", snap.Tasks)
	}
	if snap.WallSeconds <= 0 {
		t.Fatalf("WallSeconds = %v, want > 0", snap.WallSeconds)
	}
}

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.AddRows(5)
	s.AddBytes(5)
	if got := s.Snapshot(); got != (Snapshot{}) {
		t.Fatalf("nil Stats snapshot = %+v", got)
	}
	if StatsFrom(context.Background()) != nil {
		t.Fatal("StatsFrom on bare context should be nil")
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(3)
	if got := Default().Workers(); got != 3 {
		t.Fatalf("Default().Workers() = %d, want 3", got)
	}
	SetDefaultWorkers(0)
	if got := Default().Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default().Workers() = %d, want GOMAXPROCS", got)
	}
}
