package pubsub

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"modissense/internal/geo"
)

// fakeClock is a mutable test clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2015, 5, 1, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testRegistry(clock *fakeClock, opts Options) *Registry {
	if clock != nil {
		opts.Now = clock.Now
	}
	return NewRegistry(opts)
}

func region(minLat, minLon, maxLat, maxLon float64) geo.Rect {
	return geo.Rect{MinLat: minLat, MinLon: minLon, MaxLat: maxLat, MaxLon: maxLon}
}

func checkinAt(lat, lon float64, text string) Checkin {
	return Checkin{
		UserID:     7,
		POIID:      42,
		POIName:    "poi",
		Point:      geo.Point{Lat: lat, Lon: lon},
		TimeMillis: 1_430_000_000_000,
		Network:    "facebook",
		Text:       text,
	}
}

func TestAddValidation(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{})
	if _, err := r.Add(0, region(0, 0, 1, 1), nil, 0); err == nil {
		t.Fatal("user id 0 accepted")
	}
	if _, err := r.Add(1, region(2, 0, 1, 1), nil, 0); err == nil {
		t.Fatal("degenerate region accepted")
	}
	sub, err := r.Add(1, region(0, 0, 1, 1), []string{"Coffee", "coffee", "Live Music"}, 0)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	// Keywords normalize through the shared tokenizer: lowercased, split,
	// deduped, sorted.
	want := []string{"coffee", "live", "music"}
	if len(sub.Keywords) != len(want) {
		t.Fatalf("keywords = %v, want %v", sub.Keywords, want)
	}
	for i := range want {
		if sub.Keywords[i] != want[i] {
			t.Fatalf("keywords = %v, want %v", sub.Keywords, want)
		}
	}
}

func TestCapsGlobalAndPerUser(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{MaxSubscriptions: 3, MaxPerUser: 2})
	if _, err := r.Add(1, region(0, 0, 1, 1), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(1, region(0, 0, 1, 1), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(1, region(0, 0, 1, 1), nil, 0); !errors.Is(err, ErrUserQuota) {
		t.Fatalf("per-user cap: got %v, want ErrUserQuota", err)
	}
	if _, err := r.Add(2, region(0, 0, 1, 1), nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(3, region(0, 0, 1, 1), nil, 0); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("global cap: got %v, want ErrRegistryFull", err)
	}
}

func TestTTLExpiry(t *testing.T) {
	clock := newFakeClock()
	r := testRegistry(clock, Options{DefaultTTL: time.Minute, MaxTTL: time.Hour})
	sub, err := r.Add(1, region(0, 0, 1, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(1, sub.ID); err != nil {
		t.Fatalf("live Get: %v", err)
	}
	clock.Advance(2 * time.Minute)
	if _, err := r.Get(1, sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired Get: got %v, want ErrNotFound", err)
	}
	if got := r.Len(); got != 0 {
		t.Fatalf("Len after expiry = %d, want 0", got)
	}
	// Expired slots free quota for new subscriptions.
	if _, err := r.Add(1, region(0, 0, 1, 1), nil, 0); err != nil {
		t.Fatalf("Add after expiry: %v", err)
	}
	// Requested TTLs clamp to MaxTTL.
	sub2, err := r.Add(1, region(0, 0, 1, 1), nil, 48*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(sub2.ExpiresMillis-sub2.CreatedMillis) * time.Millisecond; got != time.Hour {
		t.Fatalf("clamped TTL = %v, want 1h", got)
	}
}

func TestOwnershipScoping(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{})
	sub, err := r.Add(1, region(0, 0, 1, 1), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(2, sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("foreign Get: got %v, want ErrNotFound", err)
	}
	if err := r.Remove(2, sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("foreign Remove: got %v, want ErrNotFound", err)
	}
	if got := len(r.List(2)); got != 0 {
		t.Fatalf("foreign List = %d entries, want 0", got)
	}
	if err := r.Remove(1, sub.ID); err != nil {
		t.Fatalf("owner Remove: %v", err)
	}
	if err := r.Remove(1, sub.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Remove: got %v, want ErrNotFound", err)
	}
}

func TestPublishSpatialAndKeywordMatch(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{})
	spatial, _ := r.Add(1, region(10, 20, 11, 21), nil, 0)
	keyworded, _ := r.Add(1, region(10, 20, 11, 21), []string{"jazz"}, 0)
	elsewhere, _ := r.Add(1, region(50, 50, 51, 51), nil, 0)

	// Inside the first two regions, text matches "jazz".
	if got := r.Publish(checkinAt(10.5, 20.5, "Blue Note jazz club")); got != 2 {
		t.Fatalf("matched %d subscriptions, want 2", got)
	}
	// Inside region, no keyword hit: only the spatial-only sub matches.
	if got := r.Publish(checkinAt(10.5, 20.5, "Quiet tea house")); got != 1 {
		t.Fatalf("matched %d subscriptions, want 1", got)
	}
	// Outside every region.
	if got := r.Publish(checkinAt(-10, -10, "jazz jazz jazz")); got != 0 {
		t.Fatalf("matched %d subscriptions, want 0", got)
	}

	ctx := context.Background()
	ev, _, err := r.Poll(ctx, 1, spatial.ID, 0, 10, 0)
	if err != nil || len(ev) != 2 {
		t.Fatalf("spatial sub events = %d (%v), want 2", len(ev), err)
	}
	ev, _, err = r.Poll(ctx, 1, keyworded.ID, 0, 10, 0)
	if err != nil || len(ev) != 1 {
		t.Fatalf("keyworded sub events = %d (%v), want 1", len(ev), err)
	}
	if ev[0].POIID != 42 || ev[0].SubscriptionID != keyworded.ID {
		t.Fatalf("bad event payload: %+v", ev[0])
	}
	ev, _, err = r.Poll(ctx, 1, elsewhere.ID, 0, 10, 0)
	if err != nil || len(ev) != 0 {
		t.Fatalf("elsewhere sub events = %d (%v), want 0", len(ev), err)
	}
}

func TestDropOldestAndCursorResume(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{QueueCap: 4})
	sub, _ := r.Add(1, region(0, 0, 1, 1), nil, 0)
	for i := 0; i < 10; i++ {
		r.Publish(checkinAt(0.5, 0.5, fmt.Sprintf("visit %d", i)))
	}
	// Ring holds the newest 4 events: seqs 7..10.
	ev, next, err := r.Poll(context.Background(), 1, sub.ID, 0, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 4 || ev[0].Seq != 7 || ev[3].Seq != 10 {
		t.Fatalf("ring contents = %+v, want seqs 7..10", ev)
	}
	if next != 10 {
		t.Fatalf("next cursor = %d, want 10", next)
	}
	// Resume from the cursor: nothing new yet.
	ev, next, err = r.Poll(context.Background(), 1, sub.ID, next, 100, 0)
	if err != nil || len(ev) != 0 || next != 10 {
		t.Fatalf("resume poll = %d events, cursor %d (%v)", len(ev), next, err)
	}
	// One more publish is visible exactly once from the cursor.
	r.Publish(checkinAt(0.5, 0.5, "after"))
	ev, next, err = r.Poll(context.Background(), 1, sub.ID, next, 100, 0)
	if err != nil || len(ev) != 1 || ev[0].Seq != 11 || next != 11 {
		t.Fatalf("post-resume poll = %+v cursor %d (%v)", ev, next, err)
	}
	// limit truncates and the cursor advances only past what was returned.
	for i := 0; i < 3; i++ {
		r.Publish(checkinAt(0.5, 0.5, "burst"))
	}
	ev, next, _ = r.Poll(context.Background(), 1, sub.ID, next, 2, 0)
	if len(ev) != 2 || next != 13 {
		t.Fatalf("limited poll = %d events, cursor %d, want 2 events cursor 13", len(ev), next)
	}
}

func TestLongPollWakesOnPublish(t *testing.T) {
	r := testRegistry(nil, Options{}) // real clock: long-poll uses wall time
	sub, _ := r.Add(1, region(0, 0, 1, 1), nil, 0)
	done := make(chan int, 1)
	go func() {
		ev, _, _ := r.Poll(context.Background(), 1, sub.ID, 0, 10, 5*time.Second)
		done <- len(ev)
	}()
	time.Sleep(20 * time.Millisecond) // let the poller block
	r.Publish(checkinAt(0.5, 0.5, "wake"))
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("woken poll returned %d events, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poll did not wake on publish")
	}
}

func TestLongPollCancel(t *testing.T) {
	r := testRegistry(nil, Options{})
	sub, _ := r.Add(1, region(0, 0, 1, 1), nil, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Poll(ctx, 1, sub.ID, 0, 10, 10*time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled poll error = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled long-poll did not return")
	}
}

func TestRemoveWakesWaiters(t *testing.T) {
	r := testRegistry(nil, Options{})
	sub, _ := r.Add(1, region(0, 0, 1, 1), nil, 0)
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Poll(context.Background(), 1, sub.ID, 0, 10, 10*time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := r.Remove(1, sub.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("poll after remove = %v, want ErrNotFound", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poll did not observe removal")
	}
}

// TestChurnNoGoroutineLeak hammers the registry with concurrent
// subscribe/publish/poll/remove churn and verifies the goroutine count
// returns to baseline — the registry itself must never spawn or strand
// goroutines.
func TestChurnNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	r := testRegistry(nil, Options{QueueCap: 8, MaxPerUser: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			uid := int64(w + 1)
			for i := 0; i < 50; i++ {
				sub, err := r.Add(uid, region(0, 0, 1, 1), []string{"churn"}, 0)
				if err != nil {
					continue
				}
				r.Publish(checkinAt(0.5, 0.5, "churn event"))
				r.Poll(context.Background(), uid, sub.ID, 0, 4, time.Millisecond)
				if i%2 == 0 {
					r.Remove(uid, sub.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

func TestListOrderedAndScoped(t *testing.T) {
	r := testRegistry(newFakeClock(), Options{})
	var ids []string
	for i := 0; i < 5; i++ {
		s, err := r.Add(1, region(0, 0, 1, 1), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, s.ID)
	}
	r.Add(2, region(0, 0, 1, 1), nil, 0)
	got := r.List(1)
	if len(got) != 5 {
		t.Fatalf("List = %d entries, want 5", len(got))
	}
	for i, s := range got {
		if s.ID != ids[i] {
			t.Fatalf("List order: got %s at %d, want %s", s.ID, i, ids[i])
		}
	}
}
