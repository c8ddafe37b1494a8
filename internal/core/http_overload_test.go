package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"modissense/internal/admit"
	"modissense/internal/exec"
	"modissense/internal/wire"
)

// checkOverloadAnswer asserts the overload contract on a raw response: the
// expected 429/503 status, a positive whole-second Retry-After header, and
// the "overloaded" error envelope.
func checkOverloadAnswer(t *testing.T, resp *http.Response, apiErr wire.ErrorEnvelope, wantStatus int) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Errorf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	if apiErr.Error.Code != codeOverloaded {
		t.Errorf("error code = %q, want %q", apiErr.Error.Code, codeOverloaded)
	}
	if apiErr.Error.Message == "" || apiErr.Error.RequestID == "" {
		t.Errorf("envelope incomplete: %+v", apiErr)
	}
}

// postRawSearch posts a search and returns the raw response (for header
// inspection) alongside the decoded error envelope; on 200 the envelope is
// left zero. The caller closes the body.
func (c *apiClient) postRawSearch(body wire.SearchRequest) (*http.Response, wire.ErrorEnvelope) {
	c.t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+"/api/v1/search", "application/json", bytes.NewReader(b))
	if err != nil {
		c.t.Fatal(err)
	}
	var apiErr wire.ErrorEnvelope
	if resp.StatusCode != http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			c.t.Fatalf("decode error envelope: %v", err)
		}
	}
	return resp, apiErr
}

func TestAPIRateAdmission(t *testing.T) {
	p := bootPlatform(t)
	// Two interactive tokens, then a near-zero refill: the third search in
	// a burst must be rate-rejected. (core.New derives the burst from the
	// rate, so a burst this far from it is installed directly.)
	p.Admission = admit.NewController(admit.Config{
		InteractiveQPS: 0.0001, InteractiveBurst: 2,
		BatchQPS: 0.00005, BatchBurst: 1,
	})
	srv := httptest.NewServer(NewHandler(p))
	defer srv.Close()
	c := &apiClient{t: t, srv: srv}

	in := c.signIn("facebook", "facebook:1")
	search := wire.SearchRequest{Token: in.Token, Friends: []int64{1}, Limit: 3}

	for i := 0; i < 2; i++ {
		resp, _ := c.postRawSearch(search)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst search %d status = %d", i, resp.StatusCode)
		}
	}
	resp, apiErr := c.postRawSearch(search)
	resp.Body.Close()
	checkOverloadAnswer(t, resp, apiErr, http.StatusTooManyRequests)

	// The batch bucket is independent: trending (batch class) still has its
	// own token even though interactive is drained.
	if code := c.get("/api/v1/trending?hours=1&limit=1", nil); code != http.StatusOK {
		t.Errorf("trending status = %d after interactive drained", code)
	}
	// Non-admitted routes bypass admission entirely.
	if code := c.get("/api/v1/friends?token="+in.Token, nil); code != http.StatusOK {
		t.Errorf("friends status = %d; cheap routes must bypass admission", code)
	}
}

func TestAPIDeadlineAdmission(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")

	// Install a controller whose predictor sees a deep queue of slow tasks:
	// ceil(1000/1) × p95(~100ms) = ~100s, far beyond the 30s query timeout.
	runTimes := exec.NewLatencyTracker(0)
	for i := 0; i < 32; i++ {
		runTimes.Observe(100 * time.Millisecond)
	}
	p.Admission = admit.NewController(admit.Config{
		QueueLen:   func() int { return 1000 },
		Workers:    1,
		RunTime:    runTimes,
		MinSamples: 16,
	})

	resp, apiErr := c.postRawSearch(wire.SearchRequest{Token: in.Token, Friends: []int64{1}, Limit: 3})
	resp.Body.Close()
	checkOverloadAnswer(t, resp, apiErr, http.StatusServiceUnavailable)

	// Drain the queue: the same request is admitted again.
	p.Admission = admit.NewController(admit.Config{
		QueueLen:   func() int { return 0 },
		Workers:    1,
		RunTime:    runTimes,
		MinSamples: 16,
	})
	resp2, _ := c.postRawSearch(wire.SearchRequest{Token: in.Token, Friends: []int64{1}, Limit: 3})
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain search status = %d", resp2.StatusCode)
	}
}

// TestWriteQueryErrOverloadMapping pins the writeQueryErr contract for the
// overload sentinels: shed scatter tasks, drained retry budgets and open
// breakers all answer 503 with Retry-After and the overloaded envelope.
func TestWriteQueryErrOverloadMapping(t *testing.T) {
	for _, err := range []error{
		exec.ErrShed,
		errors.Join(exec.ErrAttemptsExhausted, exec.ErrRetryBudgetExhausted),
		admit.ErrBreakerOpen,
	} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/v1/search", nil)
		writeQueryErr(rec, req, err)
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%v: status = %d, want 503", err, rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra == "" {
			t.Errorf("%v: missing Retry-After", err)
		}
	}
	// A plain exhausted attempt budget (no overload signal) stays a 500.
	rec := httptest.NewRecorder()
	writeQueryErr(rec, httptest.NewRequest("POST", "/api/v1/search", nil), exec.ErrAttemptsExhausted)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("attempts-exhausted status = %d, want 500", rec.Code)
	}
}
