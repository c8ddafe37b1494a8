package pubsub

import (
	"context"
	"math"
	"strconv"
	"testing"
	"time"
	"unsafe"
)

// TestAddHoldsNoRing: a subscription nothing has matched holds no ring, and
// a check-in elsewhere does not give it one.
func TestAddHoldsNoRing(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{})
	sub, err := r.Add(1, region(0, 0, 1, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	num, _ := strconv.ParseInt(sub.ID, 10, 64)
	s := r.subs[num]
	if s.buf != nil {
		t.Fatalf("just-added subscription holds a ring of %d slots, want none", cap(s.buf))
	}
	r.Publish(checkinAt(5, 5, "elsewhere"))
	if s.buf != nil {
		t.Fatalf("unmatched subscription holds a ring of %d slots after a publish, want none", cap(s.buf))
	}
	r.Publish(checkinAt(0.5, 0.5, "here"))
	if len(s.buf) != minRing || s.count != 1 {
		t.Fatalf("after its first event the ring has %d slots holding %d, want %d holding 1", len(s.buf), s.count, minRing)
	}
}

// TestRingGrowsWhileWrapped: a ring that has wrapped (its oldest event is
// not at index 0) keeps its events in order, with contiguous Seq, when a
// larger cap lets it grow.
func TestRingGrowsWhileWrapped(t *testing.T) {
	s := &subscriber{nextSeq: 1}
	for i := 0; i < 6; i++ { // a full 4-slot ring evicts 1 and 2
		s.push(&slot{poi: &eventPOI{id: int64(i + 1)}}, minRing)
	}
	if s.start == 0 || s.count != minRing {
		t.Fatalf("set-up: start %d count %d, want a wrapped full ring", s.start, s.count)
	}
	for i := 6; i < 11; i++ {
		if _, evicted := s.push(&slot{poi: &eventPOI{id: int64(i + 1)}}, 16); evicted {
			t.Fatalf("push %d evicted below the cap", i+1)
		}
	}
	if len(s.buf) != 16 {
		t.Fatalf("ring has %d slots, want 16 (4 → 8 → 16)", len(s.buf))
	}
	events, _, _ := s.collect(0, 0)
	if len(events) != 9 {
		t.Fatalf("collect returned %d events, want 9 (seqs 3..11)", len(events))
	}
	for i, e := range events {
		if want := uint64(i + 3); e.Seq != want || e.POIID != int64(want) {
			t.Fatalf("event %d = seq %d poi %d, want seq and poi %d", i, e.Seq, e.POIID, want)
		}
	}
}

// TestRingSlotFitsACacheLine: a ring slot holds what varies per event and a
// pointer to the shared POI record, not the wire Event, so a push writes one
// 64-byte line, not two.
func TestRingSlotFitsACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 64 {
		t.Fatalf("a ring slot is %d bytes, want at most 64 (the wire Event is %d)", size, unsafe.Sizeof(Event{}))
	}
}

// TestOverflowAtQueueCap: once a ring has grown to QueueCap (here not a
// power of two, so the last step is short), overflow drops the oldest
// event, counts it in pubsub_events_dropped_total and leaves
// pubsub_queue_depth exactly at what the ring holds.
func TestOverflowAtQueueCap(t *testing.T) {
	const queueCap = 6
	r := testRegistry(newFakeClock(), Options{QueueCap: queueCap})
	sub, err := r.Add(1, region(0, 0, 1, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	depth0, dropped0 := mQueueDepth.Value(), mDropped.Value()
	c := checkinAt(0.5, 0.5, "x")
	for i := 0; i < 10; i++ {
		r.Publish(c)
	}
	if got := mDropped.Value() - dropped0; got != 10-queueCap {
		t.Fatalf("pubsub_events_dropped_total moved by %d, want %d", got, 10-queueCap)
	}
	if got := mQueueDepth.Value() - depth0; got != queueCap {
		t.Fatalf("pubsub_queue_depth moved by %d, want %d", got, queueCap)
	}
	events, next, err := r.Poll(context.Background(), 1, sub.ID, 0, 0, 0)
	if err != nil || len(events) != queueCap || events[0].Seq != 5 || next != 10 {
		t.Fatalf("poll = %d events from seq %v, cursor %d (%v); want seqs 5..10", len(events), events, next, err)
	}
	if err := r.Remove(1, sub.ID); err != nil {
		t.Fatal(err)
	}
	if got := mQueueDepth.Value() - depth0; got != 0 {
		t.Fatalf("pubsub_queue_depth after Remove moved by %d, want 0", got)
	}
}

// TestRingGrowthAllocs bounds what a subscriber's ring costs over its life:
// one allocation per size it passes through, ⌈log₂(QueueCap/minRing)⌉+1,
// however many events it sees.
func TestRingGrowthAllocs(t *testing.T) {
	for _, queueCap := range []int{4, 5, 100, 256, 1000} {
		subs := []*subscriber{{nextSeq: 1}, {nextSeq: 1}} // AllocsPerRun runs twice
		next := 0
		allocs := testing.AllocsPerRun(1, func() {
			s := subs[next]
			next++
			for i := 0; i < 3*queueCap; i++ {
				s.push(&slot{}, queueCap)
			}
		})
		if limit := math.Ceil(math.Log2(float64(queueCap)/minRing)) + 1; allocs > limit {
			t.Errorf("QueueCap %d: %v allocations over a subscriber's life, want at most %v", queueCap, allocs, limit)
		}
	}
}

// BenchmarkAddIdle registers standing queries nothing ever matches: what
// one idle subscription costs the registry, in B/op.
func BenchmarkAddIdle(b *testing.B) {
	const perRegistry = 1000
	b.ReportAllocs()
	var r *Registry
	for i := 0; i < b.N; i++ {
		if i%perRegistry == 0 {
			r = NewRegistry(Options{MaxPerUser: perRegistry})
		}
		if _, err := r.Add(1, region(0, 0, 1, 1), []string{"food"}, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddIdleMemoryBudget keeps an idle subscription under 2 KiB. An eager
// QueueCap ring (256 slots of 56 B, 14 KiB) would cost seven times that.
func TestAddIdleMemoryBudget(t *testing.T) {
	if got := testing.Benchmark(BenchmarkAddIdle).AllocedBytesPerOp(); got >= 2<<10 {
		t.Fatalf("Registry.Add of an idle subscription allocates %d B, want under 2 KiB", got)
	}
}
