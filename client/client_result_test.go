package client

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"modissense/internal/cluster"
	"modissense/internal/obs"
	"modissense/internal/query"
	"modissense/internal/workload"
)

// TestClientTrendingServerDefaults asks for trending with hours and limit
// left at 0: the server's defaults — the trailing 24 hours, 10 POIs — must
// answer, not a 400 for "hours=0".
func TestClientTrendingServerDefaults(t *testing.T) {
	c, p := newServerAndClient(t)
	if _, err := c.SignIn("facebook", "facebook:1"); err != nil {
		t.Fatal(err)
	}
	until := time.Date(2015, 6, 10, 0, 0, 0, 0, time.UTC)
	cat := p.Catalog()
	old := cat[0]
	var pushes []Checkin
	for i := 0; i < 5; i++ { // the most visited POI, but 30 h back
		pushes = append(pushes, Checkin{POIID: old.ID, Time: until.Add(-30*time.Hour + time.Duration(i)*time.Minute).UnixMilli(), Grade: 4, Network: "facebook"})
	}
	for i, poi := range cat[1:13] {
		pushes = append(pushes, Checkin{POIID: poi.ID, Time: until.Add(-time.Duration(i+1) * time.Hour).UnixMilli(), Grade: 4, Network: "facebook"})
	}
	if res, err := c.PushCheckins(pushes); err != nil || res.Stored != len(pushes) {
		t.Fatalf("push: %+v, %v", res, err)
	}
	box := workload.GreeceBounds()
	res, err := c.Trending(box.MinLat, box.MinLon, box.MaxLat, box.MaxLon, 0, 0, until)
	if err != nil {
		t.Fatalf("Trending with server defaults: %v", err)
	}
	if len(res.POIs) != 10 {
		t.Errorf("%d POIs, want the default limit of 10", len(res.POIs))
	}
	for _, sp := range res.POIs {
		if sp.POI.ID == old.ID {
			t.Errorf("POI %d visited 30 h before until is in the default 24 h window", old.ID)
		}
	}
}

// servedAnswers are the answer shapes the server sends, keyed by the search
// keyword (or trending box) that asks for them. Work and Regions are set:
// they never travel, and the comparison ignores them.
func servedAnswers() map[string]*query.Result {
	pois := workload.GenPOIs(rand.New(rand.NewSource(3)), 400)
	scored := func(n int) []query.ScoredPOI {
		out := make([]query.ScoredPOI, n)
		for i := range out {
			p := pois[i]
			p.Hotness, p.Interest = float64(i)/7, 1+float64(i%4)/3
			out[i] = query.ScoredPOI{POI: p, Score: 5 - float64(i)/100, Visits: 40 - i%40}
		}
		return out
	}
	work := cluster.CoprocessorWork{RowsScanned: 812}
	fish := scored(1)
	fish[0].POI.Name, fish[0].POI.Keywords = "Fish & Chips <Caf\u00e9>", []string{}
	return map[string]*query.Result{
		"miss": {POIs: scored(10), LatencySeconds: 0.0421, Work: work, Regions: 16,
			Exec: obs.QuerySnapshot{Tasks: 16, Goroutines: 2, RowsScanned: 812, BytesMerged: 52371, WallSeconds: 0.00187, BlocksDecoded: 4}},
		"hit":      {POIs: scored(10), LatencySeconds: 0.000213, Cached: true},
		"degraded": {POIs: scored(3), LatencySeconds: 0.05, Degraded: true, MissingRegions: []int{3, 11}, Regions: 14},
		"clamped":  {POIs: scored(2), WindowClamped: true, EffectiveFromMillis: 1433548800000},
		"all":      {POIs: scored(400), LatencySeconds: 0.3, Work: work},
		"fish":     {POIs: fish, FailoverInProgress: true},
		"empty":    {POIs: []query.ScoredPOI{}},
	}
}

// answerNames orders servedAnswers: trending asks for one by its index, as
// the box's min_lat.
var answerNames = []string{"miss", "hit", "degraded", "clamped", "all", "fish", "empty"}

// answerServer serves servedAnswers with json.NewEncoder, as the server
// did before it had an encoder of its own: search picks the answer by
// keyword, trending by min_lat (an index into answerNames).
func answerServer(t *testing.T) (*Client, map[string]*query.Result) {
	t.Helper()
	answers := servedAnswers()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var name string
		switch r.URL.Path {
		case "/api/v1/search":
			var req struct {
				Keyword string `json:"keyword"`
			}
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			name = req.Keyword
		case "/api/v1/trending":
			if i, err := strconv.Atoi(r.URL.Query().Get("min_lat")); err == nil && i >= 0 && i < len(answerNames) {
				name = answerNames[i]
			}
		}
		res, ok := answers[name]
		if !ok {
			http.Error(w, "no answer "+name, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(res)
	}))
	t.Cleanup(srv.Close)
	c, err := New(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c, answers
}

// sameAnswer compares a decoded answer with the served one, ignoring the
// fields that never travel.
func sameAnswer(got, served *query.Result) bool {
	want := *served
	want.Work, want.Regions = cluster.CoprocessorWork{}, 0
	return reflect.DeepEqual(got, &want)
}

// TestClientDecodesServedAnswers requires Search and Trending to return
// what encoding/json would have decoded, for every answer shape.
func TestClientDecodesServedAnswers(t *testing.T) {
	c, answers := answerServer(t)
	for name, served := range answers {
		got, err := c.Search(SearchParams{Keyword: name, Friends: []int64{1}})
		if err != nil {
			t.Fatalf("Search %s: %v", name, err)
		}
		if !sameAnswer(got, served) {
			t.Errorf("Search %s:\ngot  %+v\nwant %+v", name, got, served)
		}
	}
	for i, name := range answerNames {
		served := answers[name]
		got, err := c.Trending(float64(i), 0, 90, 90, 0, 0, time.Time{})
		if err != nil {
			t.Fatalf("Trending %s: %v", name, err)
		}
		if !sameAnswer(got, served) {
			t.Errorf("Trending %s:\ngot  %+v\nwant %+v", name, got, served)
		}
	}
}

// TestClientConcurrentSearches runs 8 goroutines × 100 searches through one
// Client: with pooled read buffers, an answer that aliased one would be
// overwritten by another goroutine's (the race detector and the comparison
// both watch for it).
func TestClientConcurrentSearches(t *testing.T) {
	c, answers := answerServer(t)
	names := append([]string{"miss"}, answerNames...)
	var wg sync.WaitGroup
	errs := make(chan error, len(names))
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			var kept []*query.Result
			for i := 0; i < 100; i++ {
				got, err := c.Search(SearchParams{Keyword: name, Friends: []int64{1}})
				if err != nil {
					errs <- err
					return
				}
				kept = append(kept, got)
			}
			for i, got := range kept {
				if !sameAnswer(got, answers[name]) {
					errs <- fmt.Errorf("search %d for %s came back changed", i, name)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
