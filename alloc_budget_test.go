//go:build !race

// The race detector changes what a request allocates (its sync.Pool drops a
// quarter of what is put back), so this file is left out of -race builds.

package modissense_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"modissense"
	"modissense/client"
)

// routeBudget is what one request of a route allocated when its row was
// last set: allocations and bytes per request through the typed client (its
// encoding, the in-process transport, the handler and the decoding of the
// answer) and through the handler alone, each the largest of twenty runs.
type routeBudget struct {
	route                       string
	clientAllocs, clientBytes   float64
	handlerAllocs, handlerBytes float64
}

// The slack a measurement may exceed its row by: under one allocation a
// request, so one more allocation on a route's path fails, and one percent
// of its bytes.
const (
	allocSlack = 0.4
	byteSlack  = 0.01
)

// routeBudgets holds each measured route to what it allocated on
// TestRouteAllocBudgets' platform (Go 1.24, linux/amd64). A change that
// lowers a route's cost lowers its row in the same diff; one that raises it
// past its row and the slack fails the test.
var routeBudgets = []routeBudget{
	{"search/200/uncached", 386.1, 57658, 355.1, 51167},
	{"search/400/uncached", 412.4, 67560, 381.4, 61244},
	{"search/200/cached", 74, 20176, 43, 13665},
	{"search/400/cached", 74, 27600, 43, 21217},
	{"trending/held", 96, 13961, 42, 7488},
	{"checkins/50", 258, 31529, 226, 28611},
	{"subscription/poll", 117, 21120, 44, 9056},
	{"poi/get", 56, 4059, 20, 1696},
}

// allocRoundTripper hands a request to the handler on the caller's
// goroutine, as the repository benchmark's transport does: the typed
// client's path without a socket.
type allocRoundTripper struct{ h http.Handler }

func (t allocRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.Result(), nil
}

// routeCase is one measured route: do sends its i-th request through the
// typed client, req builds the same request for the handler alone, and
// check, if set, vets the handler's answer.
type routeCase struct {
	route string
	do    func(i int) error
	req   func(i int) *http.Request
	check func(body []byte) error
}

// measureAllocs calls fn rounds times n times, numbering the calls across
// rounds, and returns the allocations and bytes per call of the round that
// allocated least, so a goroutine of another test that allocates during one
// round does not count. The caller turns the GC off.
func measureAllocs(n, rounds int, fn func(i int)) (allocs, bytes float64) {
	allocs, bytes = -1, -1
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		runtime.ReadMemStats(&after)
		a := float64(after.Mallocs-before.Mallocs) / float64(n)
		b := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		if allocs < 0 || a < allocs {
			allocs = a
		}
		if bytes < 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes
}

// TestRouteAllocBudgets measures what a whole request allocates — a search,
// uncached and cached, with 200 and 400 friends; a trending read whose
// window is held; a 50-check-in push; a subscription poll; a POI get — end
// to end through the typed client and through the handler alone, over
// requests built beforehand, and holds each to its row of routeBudgets. The
// platform is small (300 POIs, 400 users, one collected week) and runs on
// one processor with the GC off, so the counts repeat.
func TestRouteAllocBudgets(t *testing.T) {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 300
	cfg.NetworkPopulation = 400
	cfg.ClassifierTrainDocs = 300
	// The repository benchmark's cache and trending settings.
	cfg.ResultCacheMB = 32
	cfg.HotInBucket = time.Hour
	cfg.HotInHorizon = 336 * time.Hour
	p, err := modissense.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 1; i <= 400; i++ {
		if _, _, err := p.Users.SignIn("facebook", fmt.Sprintf("facebook:%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := since.Add(7 * 24 * time.Hour)
	if _, err := p.Collect(since, until); err != nil {
		t.Fatal(err)
	}
	h := modissense.NewHandler(p)
	c, err := client.New("http://modissense.test", &http.Client{Transport: allocRoundTripper{h}})
	if err != nil {
		t.Fatal(err)
	}
	c.SetRetryPolicy(client.RetryPolicy{})
	if _, err := c.SignIn("facebook", "facebook:1"); err != nil {
		t.Fatal(err)
	}
	token := c.Token()
	catalog := p.Catalog()
	// Each route is measured over rounds rounds of n requests.
	const n, rounds = 20, 3
	sub, err := c.CreateSubscription(client.SubscriptionSpec{MinLat: 34, MinLon: 19, MaxLat: 42, MaxLon: 29, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}

	friends := func(n int) []int64 {
		ids := make([]int64, n)
		for i := range ids {
			ids[i] = int64(i + 1)
		}
		return ids
	}
	post := func(path string, body string) *http.Request {
		return httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	}
	searchBody := func(n int, to time.Time) string {
		var b strings.Builder
		fmt.Fprintf(&b, `{"token":%q,"friends":[`, token)
		for i, id := range friends(n) {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, id)
		}
		fmt.Fprintf(&b, `],"from":%q,"to":%q,"order_by":"interest","limit":10}`, since.Format(time.RFC3339), to.Format(time.RFC3339))
		return b.String()
	}
	// search is the route of a search with n friends. An uncached search's
	// window ends a minute later each time, past the collected week: the
	// same rows under a new cache key. A cached one repeats one window.
	search := func(n int, cached bool, offset int) routeCase {
		fs := friends(n)
		to := func(i int) time.Time {
			if cached {
				return until
			}
			return until.Add(time.Duration(offset+i+1) * time.Minute)
		}
		route := fmt.Sprintf("search/%d/uncached", n)
		if cached {
			route = fmt.Sprintf("search/%d/cached", n)
		}
		return routeCase{
			route: route,
			do: func(i int) error {
				res, err := c.Search(client.SearchParams{Friends: fs, From: since, To: to(i), OrderBy: "interest", Limit: 10})
				// Request 0 is the warm-up, which stores the cached entry.
				if err == nil && i > 0 && res.Cached != cached {
					err = fmt.Errorf("answer cached %v", res.Cached)
				}
				return err
			},
			req: func(i int) *http.Request { return post("/api/v1/search", searchBody(n, to(1000+i))) },
			check: func(body []byte) error {
				if bytes.Contains(body, []byte(`"cached":true`)) != cached {
					return fmt.Errorf("answer cached %v", !cached)
				}
				return nil
			},
		}
	}
	// The i-th push checks in at 50 POIs, a second apart, inside the
	// collected week; the typed client's batches are built beforehand.
	checkins := func(i int) []client.Checkin {
		out := make([]client.Checkin, 50)
		for j := range out {
			out[j] = client.Checkin{POIID: catalog[(i*50+j)%len(catalog)].ID, Time: since.Add(time.Duration(i*50+j) * time.Second).UnixMilli(), Grade: 4, Network: "facebook"}
		}
		return out
	}
	pushes := make([][]client.Checkin, 1+n*rounds)
	for i := range pushes {
		pushes[i] = checkins(i)
	}
	checkinsBody := func(i int) string {
		var b bytes.Buffer
		b.WriteString(`{"checkins":[`)
		for j, ck := range checkins(i) {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"poi_id":%d,"time":%d,"grade":4,"network":"facebook"}`, ck.POIID, ck.Time)
		}
		fmt.Fprintf(&b, `],"token":%q}`, token)
		return b.String()
	}
	trendingQuery := fmt.Sprintf("min_lat=34&min_lon=19&max_lat=42&max_lon=29&hours=24&limit=10&until=%s", until.Format(time.RFC3339))
	cases := []routeCase{
		{route: "poi/get",
			do: func(int) error { _, err := c.POI(catalog[0].ID); return err },
			req: func(int) *http.Request {
				return httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/pois/%d", catalog[0].ID), nil)
			}},
		{route: "trending/held",
			do: func(int) error {
				_, err := c.Trending(34, 19, 42, 29, 24, 10, until)
				return err
			},
			req: func(int) *http.Request {
				return httptest.NewRequest(http.MethodGet, "/api/v1/trending?"+trendingQuery, nil)
			}},
		{route: "checkins/50",
			do: func(i int) error {
				res, err := c.PushCheckins(pushes[i])
				if err == nil && res.Stored != 50 {
					err = fmt.Errorf("stored %d of 50", res.Stored)
				}
				return err
			},
			req: func(i int) *http.Request { return post("/api/v1/checkins", checkinsBody(1000+i)) }},
		{route: "subscription/poll",
			do: func(int) error {
				evs, _, err := c.PollEvents(context.Background(), sub.ID, 0, 10, 0)
				if err == nil && len(evs) != 10 {
					err = fmt.Errorf("polled %d events, want 10", len(evs))
				}
				return err
			},
			req: func(int) *http.Request {
				return httptest.NewRequest(http.MethodGet, "/api/v1/subscriptions/"+sub.ID+"/events?token="+token+"&cursor=0&limit=10", nil)
			}},
		search(200, false, 0), search(400, false, 2000), search(200, true, 0), search(400, true, 0),
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	got := map[string]routeBudget{}
	for _, rc := range cases {
		// One request first: the trending window is held and a cached
		// search's entry stored from then on.
		if err := rc.do(0); err != nil {
			t.Fatalf("%s: %v", rc.route, err)
		}
		var failed error
		ca, cb := measureAllocs(n, rounds, func(i int) {
			if err := rc.do(1 + i); err != nil && failed == nil {
				failed = err
			}
		})
		if failed != nil {
			t.Fatalf("%s: %v", rc.route, failed)
		}
		reqs := make([]*http.Request, n*rounds)
		recs := make([]*httptest.ResponseRecorder, n*rounds)
		for i := range reqs {
			reqs[i], recs[i] = rc.req(i), httptest.NewRecorder()
		}
		ha, hb := measureAllocs(n, rounds, func(i int) { h.ServeHTTP(recs[i], reqs[i]) })
		for i, rec := range recs {
			body := rec.Body.Bytes()
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: handler request %d answered %d: %s", rc.route, i, rec.Code, body)
			}
			if rc.check != nil {
				if err := rc.check(body); err != nil {
					t.Fatalf("%s: handler request %d: %v", rc.route, i, err)
				}
			}
		}
		got[rc.route] = routeBudget{route: rc.route, clientAllocs: ca, clientBytes: cb, handlerAllocs: ha, handlerBytes: hb}
	}
	for _, b := range routeBudgets {
		m, ok := got[b.route]
		if !ok {
			t.Errorf("%s: not measured", b.route)
			continue
		}
		t.Logf("%-20s client %7.1f allocs %7.0f B, handler %7.1f allocs %7.0f B", b.route, m.clientAllocs, m.clientBytes, m.handlerAllocs, m.handlerBytes)
		for _, c := range []struct {
			what      string
			got, want float64
			slack     float64
		}{
			{"client allocs", m.clientAllocs, b.clientAllocs, allocSlack},
			{"client bytes", m.clientBytes, b.clientBytes, byteSlack * b.clientBytes},
			{"handler allocs", m.handlerAllocs, b.handlerAllocs, allocSlack},
			{"handler bytes", m.handlerBytes, b.handlerBytes, byteSlack * b.handlerBytes},
		} {
			if c.got > c.want+c.slack {
				t.Errorf("%s: %s %.1f a request, budget %.1f + %.1f", b.route, c.what, c.got, c.want, c.slack)
			}
		}
	}
}
