package core

import (
	"net/http"
	"testing"

	"modissense/internal/faultinject"
	"modissense/internal/query"
	"modissense/internal/wire"
)

// TestAPIDegradedSearch boots a replicated platform, permanently fails one
// region's reads on every copy, and demands the graceful-degradation
// contract: a 200 answer flagged degraded with the failed region listed —
// and, with degradation disabled or no read policy at all, the structured
// 500 envelope instead.
func TestAPIDegradedSearch(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:1")

	if err := p.Visits.Table().EnableReplication(1); err != nil {
		t.Fatal(err)
	}
	pol := query.DefaultReadPolicy()
	pol.MaxAttempts = 2
	p.Query.SetReadPolicy(&pol)
	target := p.Visits.Table().Regions()[0].ID
	p.Query.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 7, Rules: []faultinject.Rule{{
		Fault:   faultinject.ScanError,
		Node:    faultinject.Any,
		Region:  target,
		Replica: faultinject.Any,
		Prob:    1,
	}}}))

	var res struct {
		Degraded bool  `json:"degraded"`
		Missing  []int `json:"missing_regions"`
	}
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, &res); code != http.StatusOK {
		t.Fatalf("degraded search status = %d, want 200", code)
	}
	if !res.Degraded {
		t.Error("search with a dead region not flagged degraded")
	}
	if len(res.Missing) != 1 || res.Missing[0] != target {
		t.Errorf("missing_regions = %v, want [%d]", res.Missing, target)
	}

	// With degradation off the same fault must fail the query outright.
	pol.AllowDegraded = false
	p.Query.SetReadPolicy(&pol)
	var apiErr wire.ErrorEnvelope
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, &apiErr); code != http.StatusInternalServerError {
		t.Fatalf("non-degradable search status = %d, want 500", code)
	}
	if apiErr.Error.Code != "internal" || apiErr.Error.Message == "" {
		t.Errorf("error envelope = %+v, want code %q and a message", apiErr, "internal")
	}

	// The injector needs no policy to apply: with none installed a read is
	// one attempt on the primary, and its failure is the query's.
	p.Query.SetReadPolicy(nil)
	apiErr = wire.ErrorEnvelope{}
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, &apiErr); code != http.StatusInternalServerError {
		t.Fatalf("faulted search with no read policy: status = %d, want 500", code)
	}
	if apiErr.Error.Code != "internal" {
		t.Errorf("error envelope = %+v, want code %q", apiErr, "internal")
	}

	// Clearing the injector restores the healthy path.
	p.Query.SetFaultInjector(nil)
	res.Degraded, res.Missing = false, nil
	if code := c.post("/api/v1/search", wire.SearchRequest{Token: in.Token, Friends: []int64{1}}, &res); code != http.StatusOK {
		t.Fatalf("restored search status = %d, want 200", code)
	}
	if res.Degraded || len(res.Missing) != 0 {
		t.Errorf("healthy search reported degraded=%v missing=%v", res.Degraded, res.Missing)
	}
}
