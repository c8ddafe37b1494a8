package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"modissense/internal/model"
	"modissense/internal/pubsub"
	"modissense/internal/workload"
)

// del issues a DELETE and returns the status code.
func (c *apiClient) del(path string) int {
	c.t.Helper()
	req, err := http.NewRequest(http.MethodDelete, c.srv.URL+path, nil)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// subPage mirrors the list envelope over subscriptions.
type subPage struct {
	Items      []pubsub.Subscription `json:"items"`
	NextCursor string                `json:"next_cursor"`
}

// evPage mirrors the list envelope over events.
type evPage struct {
	Items      []pubsub.Event `json:"items"`
	NextCursor string         `json:"next_cursor"`
}

func TestAPISubscriptionLifecycle(t *testing.T) {
	c, _ := newAPIClient(t)
	in := c.signIn("facebook", "facebook:3")

	// Create: 201, Location header, body carries the resource.
	body := map[string]interface{}{
		"token":   in.Token,
		"min_lat": 0.0, "min_lon": 0.0, "max_lat": 50.0, "max_lon": 50.0,
		"keywords": []string{"coffee"}, "ttl_seconds": 600,
	}
	raw, _ := json.Marshal(body)
	resp, err := http.Post(c.srv.URL+"/api/v1/subscriptions", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var sub pubsub.Subscription
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/subscriptions/"+sub.ID {
		t.Fatalf("Location = %q", loc)
	}
	if len(sub.Keywords) != 1 || sub.Keywords[0] != "coffee" {
		t.Fatalf("keywords = %v", sub.Keywords)
	}

	// Get and list see it; the list is the uniform envelope.
	var got pubsub.Subscription
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"?token="+in.Token, &got); code != http.StatusOK || got.ID != sub.ID {
		t.Fatalf("get = %d %+v", code, got)
	}
	var page subPage
	if code := c.get("/api/v1/subscriptions?token="+in.Token, &page); code != http.StatusOK || len(page.Items) != 1 {
		t.Fatalf("list = %d %+v", code, page)
	}

	// A different user cannot see or delete it.
	other := c.signIn("facebook", "facebook:4")
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"?token="+other.Token, nil); code != http.StatusNotFound {
		t.Fatalf("foreign get = %d", code)
	}
	if code := c.del("/api/v1/subscriptions/" + sub.ID + "?token=" + other.Token); code != http.StatusNotFound {
		t.Fatalf("foreign delete = %d", code)
	}

	// Owner delete: 204, then 404.
	if code := c.del("/api/v1/subscriptions/" + sub.ID + "?token=" + in.Token); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"?token="+in.Token, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete = %d", code)
	}

	// Validation and auth failures.
	if code := c.post("/api/v1/subscriptions", map[string]interface{}{"token": "bogus"}, nil); code != http.StatusUnauthorized {
		t.Fatalf("bogus token create = %d", code)
	}
	var apiErr apiError
	if code := c.post("/api/v1/subscriptions", map[string]interface{}{
		"token": in.Token, "min_lat": 10.0, "max_lat": 5.0,
	}, &apiErr); code != http.StatusBadRequest || apiErr.Error.Code != "bad_request" {
		t.Fatalf("degenerate region = %d %+v", code, apiErr)
	}
}

func TestAPISubscriptionCapacityShed(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSubscriptions = 2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(p))
	t.Cleanup(srv.Close)
	c := &apiClient{t: t, srv: srv}
	in := c.signIn("facebook", "facebook:3")
	mk := func() (int, http.Header, apiError) {
		raw, _ := json.Marshal(map[string]interface{}{
			"token": in.Token, "min_lat": 0.0, "min_lon": 0.0, "max_lat": 1.0, "max_lon": 1.0,
		})
		resp, err := http.Post(c.srv.URL+"/api/v1/subscriptions", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, resp.Header, e
	}
	for i := 0; i < 2; i++ {
		if code, _, _ := mk(); code != http.StatusCreated {
			t.Fatalf("create %d = %d", i, code)
		}
	}
	code, hdr, e := mk()
	if code != http.StatusServiceUnavailable || e.Error.Code != "overloaded" {
		t.Fatalf("over-capacity create = %d %+v", code, e)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("over-capacity answer missing Retry-After")
	}
}

func TestAPISubscriptionEventsLongPoll(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:3")
	poi := p.Catalog()[0]

	var sub pubsub.Subscription
	if code := c.post("/api/v1/subscriptions", map[string]interface{}{
		"token":   in.Token,
		"min_lat": poi.Lat - 0.01, "min_lon": poi.Lon - 0.01,
		"max_lat": poi.Lat + 0.01, "max_lon": poi.Lon + 0.01,
	}, &sub); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}

	// No events yet: empty page, cursor echoed.
	var page evPage
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"/events?token="+in.Token, &page); code != http.StatusOK {
		t.Fatalf("empty poll = %d", code)
	}
	if len(page.Items) != 0 || page.NextCursor != "0" {
		t.Fatalf("empty poll page = %+v", page)
	}

	// Push two check-ins at the subscribed POI through the ingest API.
	var pushed checkinsResponse
	if code := c.post("/api/v1/checkins", map[string]interface{}{
		"token": in.Token,
		"checkins": []map[string]interface{}{
			{"poi_id": poi.ID, "time": time.Now().UnixMilli(), "network": "facebook"},
			{"poi_id": poi.ID, "time": time.Now().UnixMilli(), "network": "facebook"},
		},
	}, &pushed); code != http.StatusOK || pushed.Stored != 2 {
		t.Fatalf("push = %d %+v", code, pushed)
	}

	if code := c.get("/api/v1/subscriptions/"+sub.ID+"/events?token="+in.Token, &page); code != http.StatusOK {
		t.Fatalf("poll = %d", code)
	}
	if len(page.Items) != 2 || page.Items[0].POIID != poi.ID || page.NextCursor != "2" {
		t.Fatalf("poll page = %+v", page)
	}

	// Resume from the cursor: nothing new.
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"/events?token="+in.Token+"&cursor="+page.NextCursor, &page); code != http.StatusOK {
		t.Fatalf("resume poll = %d", code)
	}
	if len(page.Items) != 0 {
		t.Fatalf("resume page = %+v", page)
	}

	// Invalid cursor and limit are bad_request.
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"/events?token="+in.Token+"&cursor=nope", nil); code != http.StatusBadRequest {
		t.Fatalf("bad cursor = %d", code)
	}
	if code := c.get("/api/v1/subscriptions/"+sub.ID+"/events?token="+in.Token+"&limit=0", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d", code)
	}
	if code := c.get("/api/v1/subscriptions/999999/events?token="+in.Token, nil); code != http.StatusNotFound {
		t.Fatalf("unknown sub poll = %d", code)
	}
}

func TestAPISubscriptionEventsSSE(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("facebook", "facebook:3")
	poi := p.Catalog()[0]
	var sub pubsub.Subscription
	if code := c.post("/api/v1/subscriptions", map[string]interface{}{
		"token":   in.Token,
		"min_lat": poi.Lat - 0.01, "min_lon": poi.Lon - 0.01,
		"max_lat": poi.Lat + 0.01, "max_lon": poi.Lon + 0.01,
	}, &sub); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}

	req, err := http.NewRequest(http.MethodGet, c.srv.URL+"/api/v1/subscriptions/"+sub.ID+"/events?token="+in.Token, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream open = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}

	// Publish while the stream is open.
	if code := c.post("/api/v1/checkins", map[string]interface{}{
		"token": in.Token,
		"checkins": []map[string]interface{}{
			{"poi_id": poi.ID, "time": time.Now().UnixMilli(), "network": "facebook"},
		},
	}, nil); code != http.StatusOK {
		t.Fatalf("push = %d", code)
	}

	// Read one SSE frame: id, event type and the JSON payload.
	sc := bufio.NewScanner(resp.Body)
	var id, event, data string
	deadline := time.After(5 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
readFrame:
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before a frame arrived")
			}
			switch {
			case strings.HasPrefix(line, "id:"):
				id = strings.TrimSpace(strings.TrimPrefix(line, "id:"))
			case strings.HasPrefix(line, "event:"):
				event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
			case line == "" && data != "":
				break readFrame
			}
		case <-deadline:
			t.Fatal("no SSE frame within deadline")
		}
	}
	if id != "1" || event != "checkin" {
		t.Fatalf("frame id=%q event=%q", id, event)
	}
	var ev pubsub.Event
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("frame payload: %v", err)
	}
	if ev.POIID != poi.ID || ev.Seq != 1 {
		t.Fatalf("frame event = %+v", ev)
	}
}

func TestAPIListPagination(t *testing.T) {
	c, _ := newAPIClient(t)
	in := c.signIn("facebook", "facebook:3")

	// Bare-array default is preserved without pagination params.
	var bare []model.Friend
	if code := c.get("/api/v1/friends?token="+in.Token, &bare); code != http.StatusOK || len(bare) == 0 {
		t.Fatalf("bare friends = %d (%d items)", code, len(bare))
	}

	// With ?limit= the endpoint answers the uniform envelope and pages
	// through the same listing.
	type friendPage struct {
		Items      []model.Friend `json:"items"`
		NextCursor string         `json:"next_cursor"`
	}
	var seen []model.Friend
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(bare) {
			t.Fatal("pagination does not terminate")
		}
		path := "/api/v1/friends?token=" + in.Token + "&limit=2"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		var pg friendPage
		if code := c.get(path, &pg); code != http.StatusOK {
			t.Fatalf("page = %d", code)
		}
		if len(pg.Items) > 2 {
			t.Fatalf("page size = %d", len(pg.Items))
		}
		seen = append(seen, pg.Items...)
		if pg.NextCursor == "" {
			break
		}
		cursor = pg.NextCursor
	}
	if len(seen) != len(bare) {
		t.Fatalf("paged %d friends, bare %d", len(seen), len(bare))
	}
	for i := range seen {
		if seen[i].ID != bare[i].ID {
			t.Fatalf("page order diverges at %d", i)
		}
	}

	// Invalid values are bad_request.
	for _, bad := range []string{"limit=0", "limit=nope", "limit=100000", "cursor=-1", "cursor=abc"} {
		var e apiError
		if code := c.get("/api/v1/friends?token="+in.Token+"&"+bad, &e); code != http.StatusBadRequest || e.Error.Code != "bad_request" {
			t.Fatalf("%s = %d %+v", bad, code, e)
		}
	}
}

func TestAPIUserBlogResources(t *testing.T) {
	c, p := newAPIClient(t)
	in := c.signIn("foursquare", "foursquare:4")
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	fixes := workload.GenGPSDay(newRng(11), 0, day, p.Catalog()[:3], 5*time.Minute, 40*time.Minute)
	if code := c.post("/api/v1/gps", gpsRequest{Token: in.Token, Fixes: fixes}, nil); code != http.StatusOK {
		t.Fatalf("gps push failed")
	}
	var generated json.RawMessage
	if code := c.post("/api/v1/blog/generate", blogRequest{Token: in.Token, Date: "2015-05-30"}, &generated); code != http.StatusOK {
		t.Fatalf("blog generate failed")
	}

	// The resource listing is the page envelope over the stored blogs.
	userPath := fmt.Sprintf("/api/v1/users/%d/blogs", in.UserID)
	var page struct {
		Items      []json.RawMessage `json:"items"`
		NextCursor string            `json:"next_cursor"`
	}
	if code := c.get(userPath+"?token="+in.Token, &page); code != http.StatusOK {
		t.Fatal("user blog list failed")
	}
	if len(page.Items) != 1 || string(page.Items[0]) != string(generated) {
		t.Fatalf("resource listing = %s, want the one generated blog %s", page.Items, generated)
	}

	// Addressing one day by path serves the same stored blog.
	var byPath json.RawMessage
	if code := c.get(userPath+"/2015-05-30?token="+in.Token, &byPath); code != http.StatusOK {
		t.Fatal("user blog get failed")
	}
	if string(byPath) != string(generated) {
		t.Fatalf("resource blog %s != generated blog %s", byPath, generated)
	}
	if code := c.get(userPath+"/2015-06-01?token="+in.Token, nil); code != http.StatusNotFound {
		t.Error("missing day must 404")
	}
	if code := c.get(userPath+"/not-a-day?token="+in.Token, nil); code != http.StatusBadRequest {
		t.Error("malformed day must 400")
	}

	// Blogs are private: another user's token cannot read this collection.
	other := c.signIn("twitter", "twitter:9")
	if code := c.get(userPath+"?token="+other.Token, nil); code != http.StatusUnauthorized {
		t.Error("foreign token must 401")
	}
	if code := c.get(userPath+"/2015-05-30?token="+other.Token, nil); code != http.StatusUnauthorized {
		t.Error("foreign token must 401 on the day resource")
	}
}
