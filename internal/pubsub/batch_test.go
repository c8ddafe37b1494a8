package pubsub

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/textproc"
)

// oracleSub is the brute-force model of one subscription: everything it
// was ever sent, in order. The ring and the drop count follow from that
// and the queue capacity.
type oracleSub struct {
	sub     Subscription
	removed bool
	events  []Event
}

// oracle is the matcher the registry is compared against. It shares
// nothing with it but Rect.Contains and the tokenizer: no R-tree, no memo,
// every check-in tokenized, every subscription visited.
type oracle struct {
	queueCap int
	subs     []*oracleSub
}

func (o *oracle) live(s *oracleSub, nowMillis int64) bool {
	return !s.removed && s.sub.ExpiresMillis > nowMillis
}

func (o *oracle) len(nowMillis int64) int {
	n := 0
	for _, s := range o.subs {
		if o.live(s, nowMillis) {
			n++
		}
	}
	return n
}

func (o *oracle) publish(batch []Checkin, nowMillis int64) int {
	matched := 0
	for _, c := range batch {
		tokens := map[string]bool{}
		for _, t := range textproc.Tokenize(c.Text) {
			tokens[t] = true
		}
	subs:
		for _, s := range o.subs {
			if !o.live(s, nowMillis) || !s.sub.Region().Contains(c.Point) {
				continue
			}
			for _, k := range s.sub.Keywords {
				if !tokens[k] {
					continue subs
				}
			}
			s.events = append(s.events, Event{
				Seq: uint64(len(s.events) + 1), SubscriptionID: s.sub.ID,
				UserID: c.UserID, POIID: c.POIID, POIName: c.POIName,
				Lat: c.Point.Lat, Lon: c.Point.Lon, TimeMillis: c.TimeMillis,
				Grade: c.Grade, Network: c.Network,
			})
			matched++
		}
	}
	return matched
}

// ring returns what the subscription's queue must hold: the newest
// queueCap events, their sequence numbers counting what drop-oldest evicted.
func (o *oracle) ring(s *oracleSub) []Event {
	if over := len(s.events) - o.queueCap; over > 0 {
		return s.events[over:]
	}
	return s.events
}

// check compares every subscription the oracle ever knew with the
// registry: event sequences field by field, ErrNotFound for
// the dead ones, and — once the polls have lazily reaped whatever expired —
// the live count.
func (o *oracle) check(t *testing.T, r *Registry, nowMillis int64, step int) {
	t.Helper()
	for _, s := range o.subs {
		got, _, err := r.Poll(context.Background(), s.sub.UserID, s.sub.ID, 0, 0, 0)
		if !o.live(s, nowMillis) {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: sub %s is dead, Poll = %d events, %v", step, s.sub.ID, len(got), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("step %d: sub %s Poll: %v", step, s.sub.ID, err)
		}
		want := o.ring(s)
		if len(got) != len(want) {
			t.Fatalf("step %d: sub %s holds %d events, want %d", step, s.sub.ID, len(got), len(want))
		}
		for i := range want {
			got[i].publishedNanos = 0
			if got[i] != want[i] {
				t.Fatalf("step %d: sub %s event %d = %+v, want %+v", step, s.sub.ID, i, got[i], want[i])
			}
		}
	}
	if got, want := r.Len(), o.len(nowMillis); got != want {
		t.Fatalf("step %d: Len = %d, want %d", step, got, want)
	}
}

// TestPublishBatchAgainstOracle interleaves Add, Remove, TTL expiry on a
// fake clock, Publish and PublishBatch over a small POI catalog (so the
// memo is hit, invalidated and refilled all the time) with rings small
// enough to overflow, and holds the registry to the brute-force oracle.
func TestPublishBatchAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { differential(t, seed) })
	}
}

func differential(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clock := newFakeClock()
	const queueCap = 8
	r := testRegistry(clock, Options{QueueCap: queueCap, MaxPerUser: 1 << 20, MaxSubscriptions: 1 << 20})
	o := &oracle{queueCap: queueCap}

	vocab := []string{"jazz", "coffee", "food", "museum", "bar"}
	type poi struct {
		id   int64
		name string
		pt   geo.Point
		text string
	}
	pois := make([]poi, 20)
	for i := range pois {
		name := fmt.Sprintf("Place %d", i)
		pois[i] = poi{
			id: int64(i + 1), name: name,
			pt:   geo.Point{Lat: rng.Float64(), Lon: rng.Float64()},
			text: name + " " + vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))],
		}
	}
	var timeMillis int64 = 1_430_000_000_000
	checkin := func() Checkin {
		p := pois[rng.Intn(len(pois))]
		c := Checkin{
			UserID: int64(rng.Intn(50) + 1), POIID: p.id, POIName: p.name, Point: p.pt,
			TimeMillis: timeMillis, Grade: float64(rng.Intn(6)), Network: "twitter", Text: p.text,
		}
		timeMillis += 1000
		// Now and then a catalog POI shows up renamed or moved: same id, a
		// different answer.
		switch rng.Intn(20) {
		case 0:
			c.Text = p.name + " " + vocab[rng.Intn(len(vocab))]
		case 1:
			c.Point = geo.Point{Lat: rng.Float64(), Lon: rng.Float64()}
		}
		return c
	}

	const steps = 1500
	for step := 0; step < steps; step++ {
		nowMillis := clock.Now().UnixMilli()
		switch k := rng.Intn(100); {
		case k < 25:
			lat, lon := rng.Float64(), rng.Float64()
			half := 0.05 + 0.3*rng.Float64()
			var kws []string
			for n := rng.Intn(3); n > 0; n-- {
				kws = append(kws, vocab[rng.Intn(len(vocab))])
			}
			ttl := []time.Duration{time.Minute, 5 * time.Minute, time.Hour}[rng.Intn(3)]
			sub, err := r.Add(int64(rng.Intn(5)+1), region(lat-half, lon-half, lat+half, lon+half), kws, ttl)
			if err != nil {
				t.Fatalf("step %d: Add: %v", step, err)
			}
			o.subs = append(o.subs, &oracleSub{sub: sub})
		case k < 35:
			if len(o.subs) == 0 {
				continue
			}
			s := o.subs[rng.Intn(len(o.subs))]
			err := r.Remove(s.sub.UserID, s.sub.ID)
			if o.live(s, nowMillis) != (err == nil) {
				t.Fatalf("step %d: Remove(%s) = %v, oracle live = %v", step, s.sub.ID, err, o.live(s, nowMillis))
			}
			s.removed = true
		case k < 45:
			clock.Advance(time.Duration(10+rng.Intn(110)) * time.Second)
		case k < 65:
			c := checkin()
			if got, want := r.Publish(c), o.publish([]Checkin{c}, nowMillis); got != want {
				t.Fatalf("step %d: Publish matched %d, want %d", step, got, want)
			}
		default:
			batch := make([]Checkin, 1+rng.Intn(60))
			for i := range batch {
				batch[i] = checkin()
			}
			if got, want := r.PublishBatch(batch), o.publish(batch, nowMillis); got != want {
				t.Fatalf("step %d: PublishBatch matched %d, want %d", step, got, want)
			}
		}
		if step%25 == 24 || step == steps-1 {
			o.check(t, r, clock.Now().UnixMilli(), step)
		}
	}
}

// TestMemoInvalidation walks the cases in which a memoised answer must not
// be reused: the same POI id arriving with another text or another point,
// and a subscription added, removed or expired between two batches of the
// same check-ins.
func TestMemoInvalidation(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock, Options{})
	box := region(10, 20, 11, 21)
	if _, err := r.Add(1, box, []string{"jazz"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	jazz := checkinAt(10.5, 20.5, "Blue Note jazz club")
	batch := []Checkin{jazz, jazz, jazz}
	publish := func(want int, what string) {
		t.Helper()
		if got := r.PublishBatch(batch); got != want {
			t.Fatalf("%s: matched %d, want %d", what, got, want)
		}
	}
	publish(3, "cold")
	publish(3, "memoised")
	if len(r.memo) != 1 {
		t.Fatalf("memo holds %d entries after two batches of one check-in, want 1", len(r.memo))
	}

	// Same POI id, other text; same POI id and text, other point.
	tea := jazz
	tea.Text = "Blue Note tea house"
	moved := jazz
	moved.Point = geo.Point{Lat: 50, Lon: 50}
	if got := r.PublishBatch([]Checkin{jazz, tea, moved, jazz}); got != 2 {
		t.Fatalf("renamed and moved check-ins: matched %d, want 2", got)
	}

	spatial, err := r.Add(2, box, nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	publish(6, "after Add")
	if err := r.Remove(2, spatial.ID); err != nil {
		t.Fatal(err)
	}
	publish(3, "after Remove")

	if _, err := r.Add(2, box, nil, time.Minute); err != nil {
		t.Fatal(err)
	}
	publish(6, "before expiry")
	clock.Advance(2 * time.Minute)
	publish(3, "after expiry")
	if got := r.Len(); got != 1 {
		t.Fatalf("Len after an expired match was touched = %d, want 1", got)
	}
	publish(3, "after the expired subscription was reaped")
}

// TestMemoCapOverflow: at the cap the memo is cleared whole and refills;
// answers do not change.
func TestMemoCapOverflow(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{})
	if _, err := r.Add(1, region(0, 0, 1, 1), nil, 0); err != nil {
		t.Fatal(err)
	}
	a, b := checkinAt(0.25, 0.25, "a"), checkinAt(0.75, 0.75, "b")
	if got := r.PublishBatch([]Checkin{a, b}); got != 2 {
		t.Fatalf("matched %d, want 2", got)
	}
	if len(r.memo) != 2 || r.memoSize != 4 {
		t.Fatalf("memo = %d entries, size %d; want 2 entries (one pointer each), size 4", len(r.memo), r.memoSize)
	}
	r.memoSize = memoCap - 1 // as if the stream had filled it
	if got := r.PublishBatch([]Checkin{checkinAt(0.5, 0.5, "c"), a, b}); got != 3 {
		t.Fatalf("at the cap: matched %d, want 3", got)
	}
	if len(r.memo) != 3 || r.memoSize != 6 {
		t.Fatalf("after overflow: memo = %d entries, size %d; want the 3 refilled ones, size 6", len(r.memo), r.memoSize)
	}
}

// TestPushOnGoneSubscriber: a removed subscriber buffers nothing, so a push
// that loses the race with its removal is neither a match nor queue depth.
func TestPushOnGoneSubscriber(t *testing.T) {
	s := &subscriber{nextSeq: 1}
	if queued, evicted := s.push(Event{}, 4); !queued || evicted {
		t.Fatalf("live push = (%v, %v), want (true, false)", queued, evicted)
	}
	if n := s.markGone(); n != 1 {
		t.Fatalf("markGone returned %d buffered events, want 1", n)
	}
	if queued, evicted := s.push(Event{}, 4); queued || evicted {
		t.Fatalf("push on a gone subscriber = (%v, %v), want (false, false)", queued, evicted)
	}
	if s.count != 1 || s.nextSeq != 2 {
		t.Fatalf("gone subscriber changed: count %d nextSeq %d", s.count, s.nextSeq)
	}
	if n := s.markGone(); n != 0 {
		t.Fatalf("second markGone returned %d, want 0 (the ring is given back once)", n)
	}
}

// TestQueueDepthIsRingOccupancy drives one subscription through its whole
// life — and a second one out through its TTL — and requires the gauge to
// count what the rings hold at every step and to end where it started.
// Delivery frees no slot, so polling, twice from the same cursor included,
// must not move it.
func TestQueueDepthIsRingOccupancy(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock, Options{QueueCap: 4})
	base := mQueueDepth.Value()
	depth := func(want int64, what string) {
		t.Helper()
		if got := mQueueDepth.Value() - base; got != want {
			t.Fatalf("%s: pubsub_queue_depth moved by %d, want %d", what, got, want)
		}
	}
	sub, err := r.Add(1, region(0, 0, 1, 1), nil, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	short, err := r.Add(1, region(0, 0, 1, 1), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c := checkinAt(0.5, 0.5, "x")
	r.PublishBatch([]Checkin{c, c, c})
	depth(6, "3 events in each of 2 rings")
	for i := 0; i < 2; i++ {
		if ev, _, err := r.Poll(context.Background(), 1, sub.ID, 0, 10, 0); err != nil || len(ev) != 3 {
			t.Fatalf("poll %d = %d events (%v), want 3", i, len(ev), err)
		}
	}
	depth(6, "after polling twice from cursor 0")
	r.PublishBatch([]Checkin{c, c, c})
	depth(8, "both rings full (cap 4), 2 evictions each")
	if err := r.Remove(1, sub.ID); err != nil {
		t.Fatal(err)
	}
	depth(4, "after Remove")
	clock.Advance(2 * time.Minute)
	if _, err := r.Get(1, short.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired Get = %v, want ErrNotFound", err)
	}
	depth(0, "after expiry")
}

// TestConcurrentPublishBatch runs batch publishers, subscription churn and
// long-pollers together (under -race in make check). Every poller must see
// every event of its subscription in order — a lost wake-up would leave it
// asleep on its last wait with events in the ring — and must then be woken
// by its subscription's removal.
func TestConcurrentPublishBatch(t *testing.T) {
	const (
		pollers    = 4
		publishers = 3
		batches    = 40
		batchLen   = 10
		total      = publishers * batches * batchLen
		wait       = 30 * time.Second
	)
	r := testRegistry(nil, Options{QueueCap: total})
	subs := make([]Subscription, pollers)
	for i := range subs {
		var err error
		if subs[i], err = r.Add(int64(i+1), region(0, 0, 1, 1), []string{"live"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	blocked := make(chan struct{}, pollers) // one send per poller entering its final wait
	for _, sub := range subs {
		wg.Add(1)
		go func(sub Subscription) {
			defer wg.Done()
			var cursor uint64
			for cursor < total {
				events, _, err := r.Poll(ctx, sub.UserID, sub.ID, cursor, 0, wait)
				if err != nil {
					t.Errorf("sub %s: Poll at cursor %d: %v", sub.ID, cursor, err)
					return
				}
				for _, e := range events {
					if cursor++; e.Seq != cursor {
						t.Errorf("sub %s: got seq %d, want %d", sub.ID, e.Seq, cursor)
						return
					}
				}
			}
			blocked <- struct{}{}
			if _, _, err := r.Poll(ctx, sub.UserID, sub.ID, cursor, 0, wait); !errors.Is(err, ErrNotFound) {
				t.Errorf("sub %s: Poll across its removal = %v, want ErrNotFound", sub.ID, err)
			}
		}(sub)
	}

	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			// Elsewhere, so it matches nothing but still drops the memo.
			sub, err := r.Add(99, region(50, 50, 51, 51), nil, 0)
			if err != nil {
				t.Errorf("churn Add: %v", err)
				return
			}
			if err := r.Remove(99, sub.ID); err != nil {
				t.Errorf("churn Remove: %v", err)
				return
			}
		}
	}()

	var pub sync.WaitGroup
	for p := 0; p < publishers; p++ {
		pub.Add(1)
		go func(p int) {
			defer pub.Done()
			batch := make([]Checkin, batchLen)
			for i := range batch {
				batch[i] = checkinAt(0.1*float64(i%5)+0.05, 0.5, "live show")
			}
			for b := 0; b < batches; b++ {
				if got := r.PublishBatch(batch); got != batchLen*pollers {
					t.Errorf("publisher %d batch %d matched %d, want %d", p, b, got, batchLen*pollers)
					return
				}
			}
		}(p)
	}
	pub.Wait()
	close(stopChurn)
	churn.Wait()

	for i := 0; i < pollers; i++ {
		select {
		case <-blocked:
		case <-ctx.Done():
			t.Fatal("a poller never saw all its events: lost wake-up")
		}
	}
	for _, sub := range subs {
		if err := r.Remove(sub.UserID, sub.ID); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestPublishBatchMemoHitAllocs pins the steady state of the ingest path:
// a batch whose check-ins are all memoised, delivered to subscriptions
// nobody is polling and whose rings have grown to QueueCap, allocates
// nothing — whether it produces 50 matches or 5000.
func TestPublishBatchMemoHitAllocs(t *testing.T) {
	for _, nSubs := range []int{1, 100} {
		r := testRegistry(newFakeClock(), Options{MaxPerUser: 1000})
		for i := 0; i < nSubs; i++ {
			if _, err := r.Add(1, region(0, 0, 1, 1), nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		batch := make([]Checkin, 50)
		for i := range batch {
			batch[i] = checkinAt(0.1*float64(i%8)+0.05, 0.5, fmt.Sprintf("poi %d", i%8))
		}
		for queued := 0; queued < r.opts.QueueCap; queued += len(batch) {
			if got := r.PublishBatch(batch); got != 50*nSubs {
				t.Fatalf("%d subs: matched %d, want %d", nSubs, got, 50*nSubs)
			}
		}
		for _, s := range r.subs {
			if len(s.buf) != r.opts.QueueCap || s.count != r.opts.QueueCap {
				t.Fatalf("%d subs: warm-up left a ring of %d slots holding %d events, want %d full", nSubs, len(s.buf), s.count, r.opts.QueueCap)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { r.PublishBatch(batch) }); allocs != 0 {
			t.Errorf("%d matches per batch: %v allocations per memo-hit batch, want 0", 50*nSubs, allocs)
		}
	}
}

// BenchmarkPublishBatch is the production call on the input of
// BenchmarkPublishLoop (publish_bench_test.go): one PublishBatch per batch
// of 50, against a registry that never changes (static) and one whose
// membership changes before every batch (churn).
func BenchmarkPublishBatch(b *testing.B) {
	b.Run("static", func(b *testing.B) { runPublishBench(b, false, (*Registry).PublishBatch) })
	b.Run("churn", func(b *testing.B) { runPublishBench(b, true, (*Registry).PublishBatch) })
}
