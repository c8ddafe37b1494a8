package exec

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"modissense/internal/obs"
)

// occupyPool blocks every worker slot of p and returns a release func that
// unblocks them and waits for the occupying Gather to finish.
func occupyPool(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var started sync.WaitGroup
	started.Add(p.Workers())
	tasks := make([]Task, p.Workers())
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (interface{}, error) {
			started.Done()
			<-block
			return nil, nil
		}
	}
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		if _, err := p.Gather(context.Background(), tasks); err != nil {
			t.Errorf("occupying gather failed: %v", err)
		}
	}()
	started.Wait()
	return func() {
		close(block)
		done.Wait()
	}
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGatherCancelWhileQueued is the regression test for the queue-depth
// gauge: tasks cancelled while still waiting for a worker slot must leave
// the queue immediately (not block until a slot frees) and decrement the
// gauge exactly once, with exactly one cancellation counted per task.
func TestGatherCancelWhileQueued(t *testing.T) {
	p := NewPool(2)
	base := mQueueDepth.Value()
	release := occupyPool(t, p)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := &Stats{}
	resCh := make(chan []Result, 1)
	go func() {
		tasks := make([]Task, 2)
		for i := range tasks {
			tasks[i] = func(ctx context.Context) (interface{}, error) {
				return nil, errors.New("should never run")
			}
		}
		res, _ := p.Gather(obs.WithQueryStats(ctx, st), tasks)
		resCh <- res
	}()
	waitUntil(t, "both tasks queued", func() bool { return p.QueueLen() == 2 })

	cancel()
	res := <-resCh
	// The queued tasks returned without a slot ever freeing up: the
	// occupying gather is still blocked, so this alone proves the cancel
	// path no longer waits for the semaphore.
	for i, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("task %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if got := p.QueueLen(); got != 0 {
		t.Fatalf("queue len after cancel = %d, want 0", got)
	}
	if got := mQueueDepth.Value(); got != base {
		t.Fatalf("exec_queue_depth = %d, want %d (exactly-once decrement)", got, base)
	}
	if got := st.Snapshot().Cancels; got != 2 {
		t.Fatalf("cancels = %d, want 2 (exactly once per task)", got)
	}
}

// TestBoundedQueueShedsLowestPriorityFirst fills the queue with a batch
// waiter and checks an arriving interactive task evicts it with ErrShed.
func TestBoundedQueueShedsLowestPriorityFirst(t *testing.T) {
	p := NewPool(1)
	p.SetQueueCap(1)
	release := occupyPool(t, p)

	batchErr := make(chan error, 1)
	go func() {
		res, _ := p.Gather(WithPriority(context.Background(), PriorityBatch), []Task{
			func(ctx context.Context) (interface{}, error) { return nil, nil },
		})
		batchErr <- res[0].Err
	}()
	waitUntil(t, "batch task queued", func() bool { return p.QueueLen() == 1 })

	interactiveErr := make(chan error, 1)
	go func() {
		res, _ := p.Gather(context.Background(), []Task{
			func(ctx context.Context) (interface{}, error) { return nil, nil },
		})
		interactiveErr <- res[0].Err
	}()
	if err := <-batchErr; !errors.Is(err, ErrShed) {
		t.Fatalf("batch task err = %v, want ErrShed", err)
	}
	waitUntil(t, "interactive task queued", func() bool { return p.QueueLen() == 1 })
	release()
	if err := <-interactiveErr; err != nil {
		t.Fatalf("interactive task err = %v, want nil", err)
	}
	if got := p.QueueLen(); got != 0 {
		t.Fatalf("queue len = %d, want 0", got)
	}
}

// TestBoundedQueueShedsNewestAmongEqual checks that with only one priority
// class waiting, the incoming (newest) task is the victim.
func TestBoundedQueueShedsNewestAmongEqual(t *testing.T) {
	p := NewPool(1)
	p.SetQueueCap(1)
	release := occupyPool(t, p)

	firstErr := make(chan error, 1)
	go func() {
		res, _ := p.Gather(context.Background(), []Task{
			func(ctx context.Context) (interface{}, error) { return nil, nil },
		})
		firstErr <- res[0].Err
	}()
	waitUntil(t, "first task queued", func() bool { return p.QueueLen() == 1 })

	// Same priority, queue full: the newcomer is shed synchronously.
	res, err := p.Gather(context.Background(), []Task{
		func(ctx context.Context) (interface{}, error) { return nil, nil },
	})
	if !errors.Is(res[0].Err, ErrShed) || !errors.Is(err, ErrShed) {
		t.Fatalf("newest task err = %v / %v, want ErrShed", res[0].Err, err)
	}
	release()
	if err := <-firstErr; err != nil {
		t.Fatalf("first task err = %v, want nil", err)
	}
}
