// Package pubsub turns the platform's pull-style spatio-textual queries
// into push: users register standing queries (a spatial region of interest
// plus a keyword set), every check-in flowing through the ingest path is
// matched incrementally against the registry, and matching events are
// delivered through bounded per-subscriber queues with drop-oldest
// overflow and cursor-based resume.
//
// The design follows the two streaming extensions of the platform class:
// Chen et al. (arXiv:1612.02564, distributed publish/subscribe on
// spatio-textual streams) and Mahmood et al. (arXiv:1709.02533, adaptive
// spatial-keyword streaming). Spatial candidate filtering reuses the
// R-tree of internal/geo (subscription regions are the indexed
// rectangles; a check-in point probes them), and keyword matching reuses
// the internal/textproc tokenizer so a subscription's keywords and a
// check-in's text normalize identically.
//
// Everything is bounded: a global subscription cap, a per-user cap, TTLs
// on every subscription, and a fixed-size event ring per subscriber. The
// registry spawns no goroutines of its own — expiry is enforced lazily on
// access and by periodic sweeps from the publish path — so subscriber
// churn cannot leak.
package pubsub

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"modissense/internal/geo"
	"modissense/internal/textproc"
)

// Registry errors. The HTTP layer maps ErrRegistryFull and ErrUserQuota
// onto the overload contract (503/429 + Retry-After) and ErrNotFound onto
// 404 — a subscription that expired or was deleted is simply gone.
var (
	// ErrRegistryFull rejects a new subscription because the global cap is
	// reached; the platform is shedding standing queries.
	ErrRegistryFull = errors.New("pubsub: subscription registry full")
	// ErrUserQuota rejects a new subscription because the owning user is at
	// the per-user cap.
	ErrUserQuota = errors.New("pubsub: per-user subscription quota exhausted")
	// ErrNotFound reports an unknown, expired, deleted or foreign-owned
	// subscription id.
	ErrNotFound = errors.New("pubsub: no such subscription")
)

// Subscription is one standing spatio-textual query: deliver every
// check-in inside Region whose text contains all of Keywords.
type Subscription struct {
	// ID is the resource identifier (opaque to clients; decimal here).
	ID string `json:"id"`
	// UserID owns the subscription; only the owner can read or delete it.
	UserID int64 `json:"user_id"`
	// MinLat/MinLon/MaxLat/MaxLon bound the region of interest.
	MinLat float64 `json:"min_lat"`
	MinLon float64 `json:"min_lon"`
	MaxLat float64 `json:"max_lat"`
	MaxLon float64 `json:"max_lon"`
	// Keywords is the normalized (tokenized, lowercased) keyword set; a
	// check-in matches when every keyword appears among its tokens. Empty
	// means the subscription is purely spatial.
	Keywords []string `json:"keywords,omitempty"`
	// CreatedMillis/ExpiresMillis are the lifecycle timestamps (Unix ms).
	CreatedMillis int64 `json:"created_ms"`
	ExpiresMillis int64 `json:"expires_ms"`
}

// Region returns the subscription's region of interest as a geo.Rect.
func (s Subscription) Region() geo.Rect {
	return geo.Rect{MinLat: s.MinLat, MinLon: s.MinLon, MaxLat: s.MaxLat, MaxLon: s.MaxLon}
}

// Checkin is the matcher's view of one ingested check-in: who, where,
// when, and the text to match keywords against (typically the POI name
// plus its catalog keywords).
type Checkin struct {
	// UserID is the check-in author.
	UserID int64
	// POIID/POIName identify the visited POI.
	POIID   int64
	POIName string
	// Point is the check-in location.
	Point geo.Point
	// TimeMillis is the check-in timestamp (Unix ms).
	TimeMillis int64
	// Grade is the optional sentiment grade (0 = ungraded).
	Grade float64
	// Network names the source social network.
	Network string
	// Text is tokenized with the textproc tokenizer for keyword matching.
	Text string
}

// Event is one matched check-in queued for a subscriber. Seq increases by
// one per event on each subscription and is the resume cursor: a client
// that saw Seq returns with cursor=Seq and receives only newer events.
type Event struct {
	// Seq is the per-subscription sequence number (first event is 1).
	Seq uint64 `json:"seq"`
	// SubscriptionID names the matched subscription.
	SubscriptionID string `json:"subscription_id"`
	// UserID is the check-in author.
	UserID int64 `json:"user_id"`
	// POIID/POIName identify the visited POI.
	POIID   int64  `json:"poi_id"`
	POIName string `json:"poi_name"`
	// Lat/Lon locate the check-in.
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	// TimeMillis is the check-in timestamp (Unix ms).
	TimeMillis int64 `json:"time"`
	// Grade is the optional sentiment grade (0 = ungraded).
	Grade float64 `json:"grade,omitempty"`
	// Network names the source social network.
	Network string `json:"network,omitempty"`

	// publishedNanos feeds the delivery-latency histogram; not part of the
	// wire format.
	publishedNanos int64
}

// Options sizes a Registry. The zero value takes every default.
type Options struct {
	// MaxSubscriptions is the global standing-query cap (0 = 10000).
	MaxSubscriptions int
	// MaxPerUser caps one user's live subscriptions (0 = 100).
	MaxPerUser int
	// QueueCap is the per-subscriber event-ring size; the oldest event is
	// dropped when a queue is full (0 = 256).
	QueueCap int
	// DefaultTTL applies when a subscription names no TTL (0 = 15m).
	DefaultTTL time.Duration
	// MaxTTL clamps requested TTLs (0 = 24h).
	MaxTTL time.Duration
	// Now is the clock; nil uses time.Now. Tests inject a fake.
	Now func() time.Time
}

// withDefaults fills the zero fields.
func (o Options) withDefaults() Options {
	if o.MaxSubscriptions <= 0 {
		o.MaxSubscriptions = 10000
	}
	if o.MaxPerUser <= 0 {
		o.MaxPerUser = 100
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.DefaultTTL <= 0 {
		o.DefaultTTL = 15 * time.Minute
	}
	if o.MaxTTL <= 0 {
		o.MaxTTL = 24 * time.Hour
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// subscriber is a registered subscription plus its delivery state: a
// fixed-size event ring and a broadcast channel long-pollers and SSE
// streams select on. The channel is lazy: it exists only between a poller
// finding nothing to return and the next event (or removal) waking it, so
// a subscription nobody watches costs a ring write per match and nothing
// else.
type subscriber struct {
	sub    Subscription
	num    int64
	tokens []string // normalized keywords (sorted, deduped)

	mu      sync.Mutex
	buf     []Event       // ring of cap(QueueCap)
	start   int           // index of the oldest buffered event
	count   int           // buffered events
	nextSeq uint64        // seq assigned to the next event (starts at 1)
	gone    bool          // removed or expired; wakes and fails waiters
	notify  chan struct{} // nil unless a poller is waiting
}

// push appends an event, evicting the oldest when the ring is full, and
// wakes every waiter. queued is false on a removed or expired subscriber,
// which buffers nothing; evicted reports a drop-oldest eviction.
func (s *subscriber) push(e Event) (queued, evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return false, false
	}
	e.Seq = s.nextSeq
	s.nextSeq++
	if s.count == len(s.buf) {
		s.start = (s.start + 1) % len(s.buf)
		s.count--
		evicted = true
	}
	s.buf[(s.start+s.count)%len(s.buf)] = e
	s.count++
	s.wakeLocked()
	return true, evicted
}

// wakeLocked releases every poller waiting on the notify channel. Caller
// holds s.mu.
func (s *subscriber) wakeLocked() {
	if s.notify != nil {
		close(s.notify)
		s.notify = nil
	}
}

// collect returns up to limit buffered events with Seq > cursor, or, when
// none are ready, the channel the next push or removal closes.
func (s *subscriber) collect(cursor uint64, limit int) ([]Event, <-chan struct{}, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return nil, nil, false
	}
	var out []Event
	for i := 0; i < s.count && (limit <= 0 || len(out) < limit); i++ {
		e := s.buf[(s.start+i)%len(s.buf)]
		if e.Seq > cursor {
			out = append(out, e)
		}
	}
	if len(out) > 0 {
		return out, nil, true
	}
	if s.notify == nil {
		s.notify = make(chan struct{})
	}
	return nil, s.notify, true
}

// markGone flags the subscriber dead, wakes every waiter and returns the
// number of events its ring held — read under the same lock hold that
// stops further pushes, so the queue-depth gauge gives back exactly what
// was counted in.
func (s *subscriber) markGone() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gone {
		return 0
	}
	s.gone = true
	s.wakeLocked()
	return s.count
}

// Registry is the subscription store plus the incremental matcher. All
// methods are safe for concurrent use; PublishBatch runs on the ingest
// path and takes only a read lock on the registry plus per-subscriber
// locks.
type Registry struct {
	opts Options

	mu      sync.RWMutex
	subs    map[int64]*subscriber
	perUser map[int64]int
	tree    *geo.RTree
	nextID  int64

	// memo caches the matcher's answer per (point, text): the match set is
	// a pure function of those two and of the registry's membership, so
	// every membership change drops the whole memo under mu's write lock.
	// Publishers read and fill it under mu's read lock plus memoMu.
	memoMu   sync.Mutex
	memo     map[memoKey][]*subscriber
	memoSize int // entries plus memoised pointers, at most memoCap

	// published counts check-ins to pace the lazy expiry sweep.
	published atomic.Int64
}

// memoKey is what a check-in's match set depends on besides membership.
type memoKey struct {
	pt   geo.Point
	text string
}

// memoCap bounds the memo (one unit per entry plus one per memoised
// subscriber pointer, 2 MiB of pointers at most); on overflow it is
// cleared whole and refills from the stream.
const memoCap = 1 << 18

// sweepEvery paces the lazy TTL sweep: one full scan per this many
// published check-ins (plus the sweep every Add performs).
const sweepEvery = 1024

// NewRegistry builds an empty registry.
func NewRegistry(opts Options) *Registry {
	tree, err := geo.NewRTree(16)
	if err != nil {
		// NewRTree only fails on maxFill < 4; 16 is a constant.
		panic(err)
	}
	return &Registry{
		opts:    opts.withDefaults(),
		subs:    make(map[int64]*subscriber),
		perUser: make(map[int64]int),
		tree:    tree,
		memo:    make(map[memoKey][]*subscriber),
	}
}

// Len returns the number of live (unexpired) subscriptions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.subs)
}

// normalizeKeywords tokenizes each requested keyword with the shared
// textproc tokenizer, dedupes, and sorts — the same normalization applied
// to check-in text, so matching is exact token equality.
func normalizeKeywords(keywords []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, k := range keywords {
		for _, tok := range textproc.Tokenize(k) {
			if !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Add registers a standing query for userID and returns it. A ttl <= 0
// takes the default; any ttl is clamped to MaxTTL. Errors: ErrRegistryFull
// when the global cap is reached, ErrUserQuota at the per-user cap, or a
// validation error for a degenerate region.
func (r *Registry) Add(userID int64, region geo.Rect, keywords []string, ttl time.Duration) (Subscription, error) {
	if userID < 1 {
		return Subscription{}, fmt.Errorf("pubsub: invalid user id %d", userID)
	}
	if region.MinLat > region.MaxLat || region.MinLon > region.MaxLon {
		return Subscription{}, fmt.Errorf("pubsub: degenerate region %+v", region)
	}
	if ttl <= 0 {
		ttl = r.opts.DefaultTTL
	}
	if ttl > r.opts.MaxTTL {
		ttl = r.opts.MaxTTL
	}
	now := r.opts.Now()

	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked(now)
	if len(r.subs) >= r.opts.MaxSubscriptions {
		countRejected(reasonCapacity)
		return Subscription{}, ErrRegistryFull
	}
	if r.perUser[userID] >= r.opts.MaxPerUser {
		countRejected(reasonUserQuota)
		return Subscription{}, ErrUserQuota
	}
	r.nextID++
	num := r.nextID
	sub := Subscription{
		ID:            strconv.FormatInt(num, 10),
		UserID:        userID,
		MinLat:        region.MinLat,
		MinLon:        region.MinLon,
		MaxLat:        region.MaxLat,
		MaxLon:        region.MaxLon,
		Keywords:      normalizeKeywords(keywords),
		CreatedMillis: now.UnixMilli(),
		ExpiresMillis: now.Add(ttl).UnixMilli(),
	}
	s := &subscriber{
		sub:    sub,
		num:    num,
		tokens: sub.Keywords,
		buf:    make([]Event, r.opts.QueueCap),
	}
	s.nextSeq = 1
	r.subs[num] = s
	r.perUser[userID]++
	r.tree.Insert(num, region)
	r.dropMemoLocked()
	mCreated.Inc()
	mActive.Set(int64(len(r.subs)))
	return sub, nil
}

// lookup resolves an id string to a live subscriber owned by userID,
// enforcing TTL lazily (an expired match is removed on the spot).
func (r *Registry) lookup(userID int64, id string) (*subscriber, error) {
	num, err := strconv.ParseInt(id, 10, 64)
	if err != nil {
		return nil, ErrNotFound
	}
	now := r.opts.Now()
	r.mu.RLock()
	s := r.subs[num]
	r.mu.RUnlock()
	if s == nil || s.sub.UserID != userID {
		return nil, ErrNotFound
	}
	if s.sub.ExpiresMillis <= now.UnixMilli() {
		r.removeNum(num, true)
		return nil, ErrNotFound
	}
	return s, nil
}

// Get returns the live subscription id owned by userID.
func (r *Registry) Get(userID int64, id string) (Subscription, error) {
	s, err := r.lookup(userID, id)
	if err != nil {
		return Subscription{}, err
	}
	return s.sub, nil
}

// List returns userID's live subscriptions ordered by creation (id).
func (r *Registry) List(userID int64) []Subscription {
	nowMillis := r.opts.Now().UnixMilli()
	r.mu.RLock()
	var out []Subscription
	var expired []int64
	for num, s := range r.subs {
		if s.sub.UserID != userID {
			continue
		}
		if s.sub.ExpiresMillis <= nowMillis {
			expired = append(expired, num)
			continue
		}
		out = append(out, s.sub)
	}
	r.mu.RUnlock()
	for _, num := range expired {
		r.removeNum(num, true)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.ParseInt(out[i].ID, 10, 64)
		b, _ := strconv.ParseInt(out[j].ID, 10, 64)
		return a < b
	})
	return out
}

// Remove deletes the subscription id owned by userID, waking any waiter.
// It returns ErrNotFound for unknown, foreign or already-expired ids.
func (r *Registry) Remove(userID int64, id string) error {
	s, err := r.lookup(userID, id)
	if err != nil {
		return err
	}
	if !r.removeNum(s.num, false) {
		return ErrNotFound
	}
	return nil
}

// removeNum unregisters one subscription by its numeric id. expired
// selects the metric the removal is counted under.
func (r *Registry) removeNum(num int64, expired bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.subs[num]
	if s == nil {
		return false
	}
	r.dropLocked(s)
	if expired {
		mExpired.Inc()
	} else {
		mRemoved.Inc()
	}
	return true
}

// sweepLocked removes every expired subscription. Caller holds r.mu.
func (r *Registry) sweepLocked(now time.Time) {
	nowMillis := now.UnixMilli()
	for _, s := range r.subs {
		if s.sub.ExpiresMillis <= nowMillis {
			r.dropLocked(s)
			mExpired.Inc()
		}
	}
}

// dropLocked takes s out of every index, drops the memo that may name it,
// fails its waiters and gives its slot and its buffered events back to the
// active and queue-depth gauges. Caller holds r.mu for writing.
func (r *Registry) dropLocked(s *subscriber) {
	delete(r.subs, s.num)
	if r.perUser[s.sub.UserID]--; r.perUser[s.sub.UserID] <= 0 {
		delete(r.perUser, s.sub.UserID)
	}
	r.tree.Delete(s.num, s.sub.Region())
	r.dropMemoLocked()
	mActive.Set(int64(len(r.subs)))
	mQueueDepth.Add(int64(-s.markGone()))
}

// dropMemoLocked forgets every memoised match set. Caller holds r.mu for
// writing (no publisher is inside the memo) or memoMu.
func (r *Registry) dropMemoLocked() {
	clear(r.memo)
	r.memoSize = 0
}

// matchesLocked returns the subscribers whose region contains c's point
// and whose keywords all appear in c's text, expired ones included (the
// caller checks expiry at push time). A memo miss pays one R-tree point
// probe, one tokenize of the text if any spatial candidate has keywords,
// and a keyword containment test per candidate. Caller holds r.mu for
// reading, and the returned slice is valid for as long as it does.
func (r *Registry) matchesLocked(c *Checkin) []*subscriber {
	key := memoKey{pt: c.Point, text: c.Text}
	r.memoMu.Lock()
	defer r.memoMu.Unlock()
	if subs, ok := r.memo[key]; ok {
		return subs
	}
	var subs []*subscriber
	var tokens map[string]bool
candidates:
	for _, num := range r.tree.Search(nil, geo.NewRect(c.Point, c.Point)) {
		s := r.subs[num]
		if s == nil || !s.sub.Region().Contains(c.Point) {
			continue
		}
		if len(s.tokens) > 0 && tokens == nil {
			tokens = map[string]bool{}
			for _, t := range textproc.Tokenize(c.Text) {
				tokens[t] = true
			}
		}
		for _, k := range s.tokens {
			if !tokens[k] {
				continue candidates
			}
		}
		subs = append(subs, s)
	}
	if r.memoSize+1+len(subs) > memoCap {
		r.dropMemoLocked()
	}
	r.memo[key] = subs
	r.memoSize += 1 + len(subs)
	return subs
}

// Publish matches one check-in against every standing query: the
// one-element PublishBatch.
func (r *Registry) Publish(c Checkin) int {
	return r.PublishBatch([]Checkin{c})
}

// PublishBatch matches a committed batch of check-ins against every
// standing query, in batch order, and enqueues an event per match. It
// returns the number of events enqueued. This is the ingest hot path: one
// registry read lock and one clock read per batch, a memo lookup per
// check-in and a ring write per match.
func (r *Registry) PublishBatch(batch []Checkin) int {
	start := time.Now()
	publishedNanos := start.UnixNano()
	nowMillis := r.opts.Now().UnixMilli()
	var matched, evicted int
	var expired []*subscriber

	r.mu.RLock()
	for i := range batch {
		c := &batch[i]
		e := Event{
			UserID:         c.UserID,
			POIID:          c.POIID,
			POIName:        c.POIName,
			Lat:            c.Point.Lat,
			Lon:            c.Point.Lon,
			TimeMillis:     c.TimeMillis,
			Grade:          c.Grade,
			Network:        c.Network,
			publishedNanos: publishedNanos,
		}
		for _, s := range r.matchesLocked(c) {
			if s.sub.ExpiresMillis <= nowMillis {
				expired = append(expired, s)
				continue
			}
			e.SubscriptionID = s.sub.ID
			queued, evictedOne := s.push(e)
			if queued {
				matched++
			}
			if evictedOne {
				evicted++
			}
		}
	}
	r.mu.RUnlock()

	// Expiry on touch: an expired match queued nothing above and is
	// unregistered now (once; a repeat finds it gone).
	for _, s := range expired {
		r.removeNum(s.num, true)
	}
	mMatches.Add(int64(matched))
	mDropped.Add(int64(evicted))
	mQueueDepth.Add(int64(matched - evicted))
	mMatchSeconds.ObserveDuration(time.Since(start))

	// Amortized expiry: a full sweep every sweepEvery published check-ins
	// keeps dead queues from pinning memory on write-only workloads.
	n := int64(len(batch))
	if after := r.published.Add(n); after/sweepEvery != (after-n)/sweepEvery {
		r.mu.Lock()
		r.sweepLocked(r.opts.Now())
		r.mu.Unlock()
	}
	return matched
}

// Poll returns up to limit buffered events of the subscription with
// Seq > cursor, long-polling up to wait when none are ready (wait <= 0
// returns immediately). The second return is the resume cursor: pass it
// back to receive only newer events. Events evicted by drop-oldest are
// skipped silently — the cursor jumps forward; pubsub_events_dropped_total
// exposes the count. Cancelling ctx returns early with the events seen so far.
func (r *Registry) Poll(ctx context.Context, userID int64, id string, cursor uint64, limit int, wait time.Duration) ([]Event, uint64, error) {
	deadline := r.opts.Now().Add(wait)
	for {
		s, err := r.lookup(userID, id)
		if err != nil {
			return nil, cursor, err
		}
		events, notify, live := s.collect(cursor, limit)
		if !live {
			return nil, cursor, ErrNotFound
		}
		if len(events) > 0 {
			nowNanos := time.Now().UnixNano()
			for _, e := range events {
				mDeliverySeconds.Observe(float64(nowNanos-e.publishedNanos) / 1e9)
			}
			mDelivered.Add(int64(len(events)))
			return events, events[len(events)-1].Seq, nil
		}
		remaining := deadline.Sub(r.opts.Now())
		if wait <= 0 || remaining <= 0 {
			return nil, cursor, nil
		}
		// Never outlive the subscription's own TTL.
		if untilExpiry := time.Duration(s.sub.ExpiresMillis-r.opts.Now().UnixMilli()) * time.Millisecond; untilExpiry < remaining {
			remaining = untilExpiry
		}
		if remaining <= 0 {
			return nil, cursor, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			return nil, cursor, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, cursor, ctx.Err()
		}
	}
}
