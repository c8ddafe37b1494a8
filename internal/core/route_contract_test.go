package core

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestAPIRouteContract drives every row of routeTable and asserts the
// cross-cutting API contract:
//
//   - the X-Request-ID a client supplies is echoed on every answer;
//   - every non-2xx answer is the uniform error envelope with a code from
//     the fixed enum and the request's id;
//   - no route is served anywhere but under /api/v1/: the same path under
//     the un-versioned /api/ prefix, at the root, or under another version
//     is a 404, and /metrics is the only other routable pattern.
//
// Requests are deliberately unauthenticated/malformed so each route
// answers deterministically without platform state.
func TestAPIRouteContract(t *testing.T) {
	c, _ := newAPIClient(t)

	// Per-route query fixtures forcing a cheap deterministic answer where
	// the zero-value request would otherwise run real (timing-dependent)
	// query work.
	queryFor := map[string]string{
		"trending":   "hours=abc",
		"categories": "min_lat=abc",
	}
	validCodes := map[string]bool{
		"bad_request": true, "unauthorized": true, "not_found": true,
		"internal": true, "timeout": true, "canceled": true, "overloaded": true,
	}
	const fixedID = "route-contract-fixed-id"

	do := func(t *testing.T, method, url string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", fixedID)
		if method == http.MethodPost {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(raw)
	}

	for _, rt := range routeTable {
		rt := rt
		t.Run(rt.method+strings.ReplaceAll(rt.path, "/", "_"), func(t *testing.T) {
			// Substitute path wildcards with concrete values.
			path := strings.NewReplacer("{id}", "1", "{day}", "2015-05-01").Replace(rt.path)
			query := "token=bogus"
			if q, ok := queryFor[rt.label.Value]; ok {
				query = q
			}
			v1URL := c.srv.URL + "/api/v1" + path + "?" + query

			v1Resp, v1Body := do(t, rt.method, v1URL)

			// Request-ID propagation on every route.
			if got := v1Resp.Header.Get("X-Request-ID"); got != fixedID {
				t.Errorf("X-Request-ID = %q, want %q", got, fixedID)
			}
			// Non-2xx answers wear the uniform envelope.
			if v1Resp.StatusCode/100 != 2 {
				var envelope apiError
				if err := json.Unmarshal([]byte(v1Body), &envelope); err != nil {
					t.Fatalf("status %d body is not the error envelope: %q", v1Resp.StatusCode, v1Body)
				}
				if !validCodes[envelope.Error.Code] {
					t.Errorf("envelope code %q not in the enum", envelope.Error.Code)
				}
				if envelope.Error.Message == "" {
					t.Error("envelope missing message")
				}
				if envelope.Error.RequestID != fixedID {
					t.Errorf("envelope requestId = %q, want %q", envelope.Error.RequestID, fixedID)
				}
			}
			// The versioned prefix is the only entry point.
			for _, prefix := range []string{"/api", "", "/api/v2"} {
				resp, _ := do(t, rt.method, c.srv.URL+prefix+path+"?"+query)
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("%s%s is routable: status %d, want 404", prefix, path, resp.StatusCode)
				}
			}
		})
	}

	// The pre-resource blog routes are gone from the versioned prefix too,
	// and /metrics is the one pattern outside it.
	for _, gone := range []string{"/api/v1/blog", "/api/v1/blogs", "/api/v1", "/api/v1/", "/"} {
		if resp, _ := do(t, http.MethodGet, c.srv.URL+gone+"?token=bogus"); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", gone, resp.StatusCode)
		}
	}
	if resp, _ := do(t, http.MethodGet, c.srv.URL+"/metrics"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /metrics: status %d, want 200", resp.StatusCode)
	}
}
