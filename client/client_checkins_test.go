package client

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"modissense/internal/model"
)

func TestClientPushCheckins(t *testing.T) {
	c, p := newServerAndClient(t)
	sess, err := c.SignIn("facebook", "facebook:1")
	if err != nil {
		t.Fatal(err)
	}
	poi := p.Catalog()[0]

	res, err := c.PushCheckins([]Checkin{
		{POIID: poi.ID, Time: 1000, Grade: 4, Network: "facebook"},
		{POIID: poi.ID, Time: 2000, Grade: 5, Network: "facebook"},
		{POIID: 99_999_999, Time: 3000, Network: "facebook"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stored != 2 {
		t.Errorf("stored = %d, want 2", res.Stored)
	}
	if len(res.Errors) != 1 || res.Errors[0].Index != 2 || res.Errors[0].Code != "not_found" {
		t.Errorf("item errors = %+v, want index 2 / not_found", res.Errors)
	}

	count := 0
	if err := p.Visits.ScanAll(func(v model.Visit) bool {
		if v.UserID == sess.UserID {
			count++
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("server stored %d visits, want 2", count)
	}

	// An unauthenticated client gets the typed 401.
	c2, err := New(c.baseURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.PushCheckins([]Checkin{{POIID: poi.ID, Time: 1}}); err == nil {
		t.Fatal("push without sign-in must fail")
	}
}

// TestClientPushCheckinsRetriesPressure pins the backpressure contract from
// the client side: a 503 pressure shed with Retry-After is retried per the
// policy, and the batch lands once the server drains.
func TestClientPushCheckinsRetriesPressure(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]map[string]string{
				"error": {"code": "overloaded", "message": "admission rejected (pressure)", "requestId": "r1"},
			})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(BatchResult{Stored: 3})
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(RetryPolicy{MaxRetries: 2, MaxWait: 10 * time.Millisecond, Budget: 10})
	res, err := c.PushCheckins([]Checkin{{POIID: 1, Time: 1}, {POIID: 2, Time: 2}, {POIID: 3, Time: 3}})
	if err != nil {
		t.Fatalf("push after pressure retries failed: %v", err)
	}
	if res.Stored != 3 {
		t.Errorf("stored = %d, want 3", res.Stored)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 1 primary + 2 retries", got)
	}
}
