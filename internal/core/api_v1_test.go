package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"modissense/internal/obs"
	"modissense/internal/wire"
)

// TestAPIErrorEnvelope exercises the uniform error envelope: every failure
// answers {"error":{"code","message","requestId"}} and the requestId matches
// the X-Request-ID response header.
func TestAPIErrorEnvelope(t *testing.T) {
	c, _ := newAPIClient(t)

	// Malformed JSON body → 400 bad_request.
	resp, err := http.Post(c.srv.URL+"/api/v1/search", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
	var envelope wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if envelope.Error.Code != "bad_request" || envelope.Error.Message == "" {
		t.Errorf("envelope = %+v, want code bad_request and a message", envelope)
	}
	if envelope.Error.RequestID == "" {
		t.Error("envelope missing requestId")
	}
	if got := resp.Header.Get("X-Request-ID"); got != envelope.Error.RequestID {
		t.Errorf("X-Request-ID header %q != envelope requestId %q", got, envelope.Error.RequestID)
	}

	// Bad token → 401 unauthorized, same envelope shape.
	var unauth wire.ErrorEnvelope
	if code := c.get("/api/v1/friends?token=bogus", &unauth); code != http.StatusUnauthorized {
		t.Fatalf("bad token status = %d, want 401", code)
	}
	if unauth.Error.Code != "unauthorized" || unauth.Error.Message == "" || unauth.Error.RequestID == "" {
		t.Errorf("unauthorized envelope = %+v", unauth)
	}
}

// TestAPIRequestIDPropagation verifies a client-supplied X-Request-ID is
// honored end to end instead of replaced.
func TestAPIRequestIDPropagation(t *testing.T) {
	c, _ := newAPIClient(t)
	req, err := http.NewRequest(http.MethodGet, c.srv.URL+"/api/v1/friends?token=bogus", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "my-fixed-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "my-fixed-id-42" {
		t.Errorf("X-Request-ID = %q, want the propagated id", got)
	}
	var envelope wire.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.RequestID != "my-fixed-id-42" {
		t.Errorf("envelope requestId = %q, want the propagated id", envelope.Error.RequestID)
	}
}

// TestAPIMetricsExposition scrapes /metrics after real traffic and demands
// series from all four instrumented layers: kvstore, exec, query and HTTP.
func TestAPIMetricsExposition(t *testing.T) {
	c, _ := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, nil); code != http.StatusOK {
		t.Fatalf("search status %d", code)
	}
	resp, err := http.Get(c.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, series := range []string{
		// kvstore layer
		"kvstore_rows_scanned_total",
		"kvstore_blocks_loaded_total",
		"kvstore_read_attempts_total",
		"kvstore_memtable_flushes_total",
		// exec layer
		"exec_tasks_total",
		"exec_task_wait_seconds_bucket",
		"exec_queue_depth",
		// query layer
		`query_queries_total{path="personalized"}`,
		"query_coprocessor_seconds_bucket",
		"query_merge_candidates_bucket",
		// HTTP layer
		`route="search"`,
		"http_requests_total",
		"http_request_seconds_bucket",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	// The search above must have counted rows through the personalized path.
	if !strings.Contains(body, "# TYPE query_queries_total counter") {
		t.Error("query_queries_total not typed as counter")
	}
}

// TestAPISearchTraceRoundTrip completes a search, then fetches its span
// tree through GET /api/v1/queries/{id}/trace using the X-Request-ID the
// response carried — the acceptance path of the obs tentpole.
func TestAPISearchTraceRoundTrip(t *testing.T) {
	c, _ := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")
	body, err := json.Marshal(wire.SearchRequest{Token: in.Token, Friends: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.srv.URL+"/api/v1/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("search response missing X-Request-ID")
	}

	var view obs.TraceView
	if code := c.get("/api/v1/queries/"+reqID+"/trace", &view); code != http.StatusOK {
		t.Fatalf("trace fetch status = %d", code)
	}
	if view.RequestID != reqID {
		t.Errorf("trace request_id = %q, want %q", view.RequestID, reqID)
	}
	if view.Root.Name != "http:search" {
		t.Errorf("trace root = %q, want http:search", view.Root.Name)
	}
	if view.DurationMicros < 0 {
		t.Error("negative trace duration")
	}
	// The search path records scatter (with per-region coprocessor children)
	// and merge under the root.
	names := map[string]int{}
	for _, child := range view.Root.Children {
		names[child.Name]++
		if child.Name == "scatter" && len(child.Children) == 0 {
			t.Error("scatter span has no per-region coprocessor children")
		}
	}
	if names["scatter"] == 0 || names["merge"] == 0 {
		t.Errorf("trace children = %v, want scatter and merge", names)
	}

	// Unknown id → 404 envelope.
	var missing wire.ErrorEnvelope
	if code := c.get("/api/v1/queries/no-such-request/trace", &missing); code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", code)
	}
	if missing.Error.Code != "not_found" {
		t.Errorf("unknown trace envelope = %+v", missing)
	}
}
