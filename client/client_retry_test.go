package client

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// overloadServer answers 429 (with Retry-After and the overloaded envelope)
// for the first `fails` requests, then 200.
func overloadServer(t *testing.T, fails int64, status int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= fails {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(map[string]map[string]string{
				"error": {"code": "overloaded", "message": "server overloaded", "requestId": "r1"},
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]interface{}{"pois": []interface{}{}})
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func TestClientRetriesOverload(t *testing.T) {
	srv, hits := overloadServer(t, 2, http.StatusTooManyRequests)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Short MaxWait keeps the test fast while still exercising the
	// Retry-After parse + clamp path (hint is 1s, clamped to 10ms).
	c.SetRetryPolicy(RetryPolicy{MaxRetries: 2, MaxWait: 10 * time.Millisecond, Budget: 10})

	start := time.Now()
	if _, err := c.Search(SearchParams{Limit: 1}); err != nil {
		t.Fatalf("search after retries failed: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 primary + 2 retries)", got)
	}
	// Two jittered waits in [5ms, 10ms): well under the raw 2×1s hint.
	if el := time.Since(start); el > time.Second {
		t.Fatalf("retries slept %v; Retry-After clamp not applied", el)
	}
}

func TestClientOverloadErrorTyped(t *testing.T) {
	srv, hits := overloadServer(t, 1<<30, http.StatusServiceUnavailable)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxRetries: 1, MaxWait: 5 * time.Millisecond, Budget: 10})

	_, err = c.Search(SearchParams{Limit: 1})
	if err == nil {
		t.Fatal("expected overload error")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v is not an *APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != CodeOverloaded {
		t.Errorf("apiErr = %+v", apiErr)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", apiErr.RetryAfter)
	}
	if !IsOverloaded(err) {
		t.Error("IsOverloaded must report true")
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (retry cap respected)", got)
	}
}

func TestClientRetryBudgetDrains(t *testing.T) {
	srv, hits := overloadServer(t, 1<<30, http.StatusServiceUnavailable)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two tokens total: the first call retries twice, the second call finds
	// the budget empty and fails without retrying.
	c.SetRetryPolicy(RetryPolicy{MaxRetries: 2, MaxWait: 5 * time.Millisecond, Budget: 2})

	if _, err := c.Search(SearchParams{Limit: 1}); !IsOverloaded(err) {
		t.Fatalf("first call err = %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("first call: server saw %d requests, want 3", got)
	}
	if _, err := c.Search(SearchParams{Limit: 1}); !IsOverloaded(err) {
		t.Fatalf("second call err = %v", err)
	}
	if got := hits.Load(); got != 4 {
		t.Fatalf("budget drained: server saw %d requests, want 4 (no retries left)", got)
	}
}

func TestClientNonOverloadErrorsNotRetried(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(map[string]map[string]string{
			"error": {"code": "bad_request", "message": "nope"},
		})
	}))
	defer srv.Close()
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(SearchParams{Limit: 1}); err == nil || IsOverloaded(err) {
		t.Fatalf("err = %v, want non-overload failure", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (400s are not retried)", got)
	}
}

// jitterWaits draws n retry waits for one hint from c, with the per-call cap
// and the budget out of the way.
func jitterWaits(c *Client, hint time.Duration, n int) []time.Duration {
	c.SetRetryPolicy(RetryPolicy{MaxRetries: 1, MaxWait: time.Hour, Budget: float64(n)})
	out := make([]time.Duration, n)
	for i := range out {
		wait, ok := c.nextRetryWait(0, hint)
		if !ok {
			return out[:i]
		}
		out[i] = wait
	}
	return out
}

// TestRetryJitterDiffersAcrossClients: two clients created back to back,
// within one clock tick or not, must not retry in lockstep.
func TestRetryJitterDiffersAcrossClients(t *testing.T) {
	a, err := New("http://localhost:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("http://localhost:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := jitterWaits(a, time.Second, 8), jitterWaits(b, time.Second, 8)
	same := 0
	for i := range wa {
		if wa[i] == wb[i] {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("back-to-back clients drew %d equal waits of 8:\n%v\n%v", same, wa, wb)
	}
}

// TestRetryJitterRange: every jittered wait lies in [wait/2, wait], for
// waits down to a nanosecond.
func TestRetryJitterRange(t *testing.T) {
	c, err := New("http://localhost:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wait := range []time.Duration{1, 2, 3, 25 * time.Millisecond, time.Second} {
		waits := jitterWaits(c, wait, 1000)
		if len(waits) != 1000 {
			t.Fatalf("wait %v: drew %d waits, want 1000", wait, len(waits))
		}
		for _, got := range waits {
			if got < wait/2 || got > wait {
				t.Fatalf("wait %v: jittered to %v, outside [%v, %v]", wait, got, wait/2, wait)
			}
		}
	}
}

// BenchmarkNew creates clients over one shared http.Client: what a client
// itself costs, in B/op.
func BenchmarkNew(b *testing.B) {
	hc := &http.Client{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New("http://modissense.example:8080", hc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNewMemoryBudget keeps a client under 1 KiB beyond the caller's
// http.Client. A private math/rand source alone is about 4.9 KiB.
func TestNewMemoryBudget(t *testing.T) {
	if got := testing.Benchmark(BenchmarkNew).AllocedBytesPerOp(); got >= 1<<10 {
		t.Fatalf("New allocates %d B per client, want under 1 KiB", got)
	}
}
