package core

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"modissense/internal/wire"
)

// TestAPIQueryTimeout drives a personalized search against a platform whose
// query deadline is already unmeetable and demands the structured 504
// answer the API contract promises.
func TestAPIQueryTimeout(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")

	p.cfg.QueryTimeout = time.Nanosecond
	var apiErr wire.ErrorEnvelope
	code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, &apiErr)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline search status = %d, want %d", code, http.StatusGatewayTimeout)
	}
	if apiErr.Error.Code != "timeout" || apiErr.Error.Message == "" {
		t.Errorf("error envelope = %+v, want code %q and a message", apiErr, "timeout")
	}

	// Trending rides the same per-request context plumbing.
	apiErr = wire.ErrorEnvelope{}
	if code := c.get("/api/v1/trending?min_lat=37&min_lon=23&max_lat=39&max_lon=24&hours=24&limit=3", &apiErr); code != http.StatusGatewayTimeout {
		t.Fatalf("expired-deadline trending status = %d, want %d", code, http.StatusGatewayTimeout)
	}
	if apiErr.Error.Code != "timeout" {
		t.Errorf("trending error envelope = %+v, want code %q", apiErr, "timeout")
	}

	// Restoring the deadline restores service.
	p.cfg.QueryTimeout = 30 * time.Second
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, nil); code != http.StatusOK {
		t.Errorf("search after deadline restore status = %d, want 200", code)
	}
}

// TestAPIQueryClientCancel serves a search whose request context is already
// cancelled — the handler must answer the nginx-style 499 with code
// "canceled" rather than a generic failure.
func TestAPIQueryClientCancel(t *testing.T) {
	p := bootPlatform(t)
	_, tok, err := p.Users.SignIn("facebook", "facebook:2")
	if err != nil {
		t.Fatal(err)
	}
	handler := NewHandler(p)

	body, err := json.Marshal(wire.SearchRequest{Token: tok, Friends: []int64{2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v1/search", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled search status = %d, want %d", rec.Code, StatusClientClosedRequest)
	}
	var apiErr wire.ErrorEnvelope
	if err := json.NewDecoder(rec.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	if apiErr.Error.Code != "canceled" || apiErr.Error.Message == "" {
		t.Errorf("error envelope = %+v, want code %q and a message", apiErr, "canceled")
	}
}
