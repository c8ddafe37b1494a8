package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"modissense/internal/admit"
	"modissense/internal/faultinject"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/query"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// testConfig returns a small but complete platform configuration.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.POIs = 200
	cfg.NetworkPopulation = 300
	cfg.MeanFriends = 12
	cfg.ClassifierTrainDocs = 300
	return cfg
}

func bootPlatform(t testing.TB) *Platform {
	t.Helper()
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var collectWindow = struct{ since, until time.Time }{
	since: time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC),
	until: time.Date(2015, 5, 8, 0, 0, 0, 0, time.UTC),
}

func TestConfigValidate(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.RegionsPerNode = 0 },
		func(c *Config) { c.POIs = 0 },
		func(c *Config) { c.NetworkPopulation = 1 },
		func(c *Config) { c.MeanFriends = 0 },
		func(c *Config) { c.CheckinsPerDay = 0 },
		func(c *Config) { c.ClassifierTrainDocs = 5 },
		func(c *Config) { c.AdmitQPS = -1 },
		func(c *Config) { c.ExecQueueCap = -1 },
		func(c *Config) { c.RetryBudgetRatio = -0.5 },
		func(c *Config) { c.BreakerFailures = -1 },
		func(c *Config) { c.MaxSubscriptions = -1 },
		func(c *Config) { c.SubQueueCap = -1 },
		func(c *Config) { c.DownAfter = -1 },
		func(c *Config) { c.FailoverEnabled = true }, // without replicas
		func(c *Config) { c.WALSync = "always" },
		func(c *Config) { c.BlockCompression = "zip" },
	}
	for i, mut := range muts {
		cfg := testConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d must fail", i)
		}
	}
}

// TestDerivedTunings pins the values core.New works out from a knob that
// stays, where a knob of their own used to carry them.
func TestDerivedTunings(t *testing.T) {
	t.Run("reads hedge given a replica to race and an attempt to spend", func(t *testing.T) {
		for _, tc := range []struct {
			replicas, attempts int
			policy, hedged     bool
		}{
			{0, 0, false, false}, {2, 0, false, false},
			{0, 3, true, false}, {1, 1, true, false},
			{1, 2, true, true}, {2, 3, true, true},
		} {
			cfg := testConfig()
			cfg.ReadReplicas, cfg.ReadMaxAttempts = tc.replicas, tc.attempts
			pol := cfg.readPolicy()
			if (pol != nil) != tc.policy || (pol != nil && pol.HedgeEnabled != tc.hedged) {
				t.Errorf("replicas=%d attempts=%d: policy %+v, want installed=%v hedged=%v",
					tc.replicas, tc.attempts, pol, tc.policy, tc.hedged)
			}
		}
	})

	t.Run("an admission bucket holds one second's worth", func(t *testing.T) {
		for _, tc := range []struct {
			qps                float64
			interactive, batch int
		}{{0.5, 1, 1}, {2.5, 3, 1}, {6, 6, 3}} {
			cfg := testConfig()
			cfg.AdmitQPS = tc.qps
			p, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Draining a bucket takes microseconds; its refill at these
			// rates, a sizeable fraction of a second per token.
			for class, want := range map[admit.Class]int{admit.Interactive: tc.interactive, admit.Batch: tc.batch} {
				got := 0
				for p.Admission.Admit(class, 0).OK {
					got++
				}
				if got != want {
					t.Errorf("qps=%v: %s bucket admitted %d back to back, want %d", tc.qps, class, got, want)
				}
			}
		}
	})

	t.Run("a node is suspect halfway to down", func(t *testing.T) {
		for _, tc := range []struct{ downAfter, suspect, down int }{{0, 3, 6}, {2, 1, 2}, {5, 3, 5}} {
			cfg := testConfig()
			cfg.ReadReplicas, cfg.FailoverEnabled, cfg.DownAfter = 1, true, tc.downAfter
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("down-after=%d does not boot: %v", tc.downAfter, err)
			}
			tbl := p.Visits.Table()
			tbl.SetFaultInjector(faultinject.New(faultinject.Schedule{Seed: 1, Rules: []faultinject.Rule{{
				Fault: faultinject.Crash, Op: faultinject.OpPut,
				Node: faultinject.Any, Region: faultinject.Any, Replica: faultinject.Any, Prob: 1,
			}}}))
			// The region's row and node are read once: the down verdict
			// promotes the region away on another goroutine.
			r := tbl.Regions()[1]
			row, node := r.StartKey+"\x00probe", r.PrimaryNode()
			suspect, down := 0, 0
			for i := 1; down == 0 && i <= 10; i++ {
				if err := tbl.Put(row, "v", 1, nil); err == nil {
					t.Fatal("a put under the crash schedule succeeded")
				}
				switch tbl.NodeHealth(node) {
				case kvstore.NodeSuspect:
					if suspect == 0 {
						suspect = i
					}
				case kvstore.NodeDown:
					down = i
				}
			}
			if suspect != tc.suspect || down != tc.down {
				t.Errorf("down-after=%d: suspect after %d failures and down after %d, want %d and %d",
					tc.downAfter, suspect, down, tc.suspect, tc.down)
			}
			tbl.SetFaultInjector(nil)
			if err := tbl.WaitFailover(context.Background()); err != nil {
				t.Error(err)
			}
			if err := p.Close(); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestPlatformEndToEndFlow(t *testing.T) {
	p := bootPlatform(t)
	if p.POIs.Len() != 200 {
		t.Fatalf("catalog size = %d", p.POIs.Len())
	}

	// Sign in two users and link an extra network for the first.
	acct1, tok1, err := p.Users.SignIn("facebook", "facebook:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Users.Link(tok1, "foursquare", "foursquare:1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Users.SignIn("twitter", "twitter:2"); err != nil {
		t.Fatal(err)
	}

	// Collect a week of social activity.
	stats, err := p.Collect(collectWindow.since, collectWindow.until)
	if err != nil {
		t.Fatal(err)
	}
	if stats.UsersScanned != 2 || stats.Checkins == 0 {
		t.Fatalf("collection stats = %+v", stats)
	}

	// HotIn update over the same window.
	hotStats, err := p.UpdateHotIn(collectWindow.since, collectWindow.until)
	if err != nil {
		t.Fatal(err)
	}
	if hotStats.POIsUpdated == 0 || hotStats.VisitsAggregated != stats.Checkins || hotStats.MaxVisits == 0 {
		t.Fatalf("hotin stats = %+v", hotStats)
	}

	// Personalized search with all friends of user 1.
	box := workload.GreeceBounds()
	res, err := p.Search(context.Background(), SearchRequest{
		Token: tok1,
		BBox:  &box,
		From:  collectWindow.since,
		To:    collectWindow.until,
		Limit: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencySeconds <= 0 {
		t.Error("search latency must be positive")
	}
	// Friends visit POIs only if they are platform users; user 1's friends
	// are not registered, so the search legitimately may return nothing —
	// but the fan-out must still have probed every friend.
	if res.Work.Friends == 0 {
		t.Error("search must probe the friend list")
	}
	_ = acct1

	// Search restricted to the collected users themselves: their visits
	// exist, so results must be non-empty.
	res, err = p.Search(context.Background(), SearchRequest{
		Token:   tok1,
		BBox:    &box,
		Friends: []int64{1, 2},
		From:    collectWindow.since,
		To:      collectWindow.until,
		OrderBy: query.ByInterest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.POIs) == 0 {
		t.Error("search over active users returned nothing")
	}

	// Trending (non-personalized, from the view).
	trend, err := p.Trending(context.Background(), &box, nil, collectWindow.since, collectWindow.until, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(trend.POIs) == 0 {
		t.Error("trending returned nothing over the collected window")
	}
}

func TestPlatformGPSAndBlog(t *testing.T) {
	p := bootPlatform(t)
	_, tok, err := p.Users.SignIn("facebook", "facebook:7")
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	stops := p.Catalog()[:3]
	fixes := workload.GenGPSDay(newRng(9), 0 /* overridden by token */, day, stops, 5*time.Minute, 40*time.Minute)
	n, err := p.PushGPS(tok, fixes)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fixes) {
		t.Fatalf("stored %d fixes, want %d", n, len(fixes))
	}
	blog, err := p.GenerateBlog(tok, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(blog.Entries) < 2 {
		t.Fatalf("blog has %d entries, want >= 2: %s", len(blog.Entries), blog.Rendered)
	}
	matched := 0
	for _, e := range blog.Entries {
		if e.Matched {
			matched++
		}
	}
	if matched == 0 {
		t.Error("no blog entry matched a catalog POI")
	}
	// The blog is persisted and retrievable.
	stored, ok := p.Blogs.Get(blog.UserID, day)
	if !ok {
		t.Fatal("stored blog missing")
	}
	if stored.ID != blog.ID {
		t.Error("stored blog id mismatch")
	}
	// Pushing with a bad token fails.
	if _, err := p.PushGPS("bogus", fixes); err == nil {
		t.Error("bad token must fail")
	}
	if _, err := p.GenerateBlog("bogus", day); err == nil {
		t.Error("bad token must fail")
	}
}

func TestPlatformEventDetection(t *testing.T) {
	p := bootPlatform(t)
	_, tok, err := p.Users.SignIn("facebook", "facebook:9")
	if err != nil {
		t.Fatal(err)
	}
	// Plant a gathering far from every catalog POI: middle of the Aegean.
	center := geo.Point{Lat: 37.0, Lon: 25.5}
	for _, poi := range p.Catalog() {
		if geo.Haversine(center, poi.Point()) < 5000 {
			t.Skip("random catalog POI too close to the planted gathering")
		}
	}
	start := time.Date(2015, 5, 30, 20, 0, 0, 0, time.UTC)
	fixes := workload.GenGathering(newRng(10), center, 150, 40, start, start.Add(3*time.Hour))
	if _, err := p.PushGPS(tok, fixes); err != nil {
		t.Fatal(err)
	}
	before := p.POIs.Len()
	res, err := p.DetectEvents(context.Background(), EventDetectionParams{Eps: 120, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.TracesScanned != 150 {
		t.Errorf("scanned %d traces", res.TracesScanned)
	}
	if len(res.NewPOIs) != 1 {
		t.Fatalf("detected %d events, want 1", len(res.NewPOIs))
	}
	if d := geo.Haversine(res.NewPOIs[0].Point(), center); d > 100 {
		t.Errorf("event centroid %.0f m from the gathering", d)
	}
	if p.POIs.Len() != before+1 {
		t.Error("event POI not inserted into the catalog")
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("event detection must report simulated duration")
	}
	// A second run must not re-detect the now-known POI.
	res2, err := p.DetectEvents(context.Background(), EventDetectionParams{Eps: 120, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.NewPOIs) != 0 {
		t.Errorf("re-detected %d events at a known POI", len(res2.NewPOIs))
	}
	if _, err := p.DetectEvents(context.Background(), EventDetectionParams{}); err == nil {
		t.Error("invalid params must fail")
	}
}

func TestPlatformVisitsMatchTextRepo(t *testing.T) {
	p := bootPlatform(t)
	_, _, err := p.Users.SignIn("facebook", "facebook:5")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Collect(collectWindow.since, collectWindow.until)
	if err != nil {
		t.Fatal(err)
	}
	// Every stored visit has a matching comment in the Text repository.
	checked := 0
	err = p.Visits.ScanAll(func(v model.Visit) bool {
		if checked >= 10 {
			return false
		}
		comments, err := p.Texts.Comments(v.POI.ID, v.UserID, v.Time, v.Time)
		if err != nil || len(comments) == 0 {
			t.Errorf("visit at %d has no comment (err=%v)", v.Time, err)
		}
		checked++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no visits collected")
	}
	// Friend lists were handed to the social info repo too.
	if stats.FriendsStored == 0 {
		t.Error("no friends stored by the collection")
	}
}

// TestFailoverBootWiring boots with replication, breakers and write-path
// failover armed and verifies the table-level mechanism is live.
func TestFailoverBootWiring(t *testing.T) {
	cfg := testConfig()
	cfg.ReadReplicas = 1
	cfg.FailoverEnabled = true
	cfg.BreakerFailures = 3
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// An armed failure detector takes a breaker trip's escalation.
	tbl := p.Visits.Table()
	tbl.MarkNodeSuspect(0)
	if h := tbl.NodeHealth(0); h != kvstore.NodeSuspect {
		t.Fatalf("node 0 health = %v after a suspect mark, want suspect: failover not armed on the visits table", h)
	}
}

func TestVisitSchemaConfig(t *testing.T) {
	cfg := testConfig()
	cfg.VisitSchema = repos.SchemaNormalized
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Visits.Schema() != repos.SchemaNormalized {
		t.Error("schema config ignored")
	}
}

func TestBlogEnrichedWithOwnComments(t *testing.T) {
	p := bootPlatform(t)
	acct, tok, err := p.Users.SignIn("facebook", "facebook:11")
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	stop := p.Catalog()[4]
	fixes := workload.GenGPSDay(newRng(21), 0, day, []model.POI{stop}, 5*time.Minute, 40*time.Minute)
	if _, err := p.PushGPS(tok, fixes); err != nil {
		t.Fatal(err)
	}
	// A comment the user made at that POI while dwelling there.
	if err := p.Texts.StoreComment(model.Comment{
		UserID: acct.UserID,
		POIID:  stop.ID,
		Time:   model.Millis(day.Add(8*time.Hour + 10*time.Minute)),
		Text:   "lovely spot for breakfast",
		Grade:  4.5,
	}); err != nil {
		t.Fatal(err)
	}
	blog, err := p.GenerateBlog(tok, day)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range blog.Entries {
		if e.Comment == "lovely spot for breakfast" {
			found = true
		}
	}
	if !found {
		t.Errorf("blog entries missing the user's comment: %+v\n%s", blog.Entries, blog.Rendered)
	}
	if !strings.Contains(blog.Rendered, "lovely spot for breakfast") {
		t.Errorf("rendered blog missing the comment:\n%s", blog.Rendered)
	}
}

func TestGPSCompressionOnIngest(t *testing.T) {
	cfg := testConfig()
	cfg.GPSCompressionToleranceMeters = 15
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, tok, err := p.Users.SignIn("facebook", "facebook:13")
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	fixes := workload.GenGPSDay(newRng(23), 0, day, p.Catalog()[:3], 5*time.Minute, 40*time.Minute)
	stored, err := p.PushGPS(tok, fixes)
	if err != nil {
		t.Fatal(err)
	}
	if stored >= len(fixes) {
		t.Errorf("compression stored %d of %d fixes", stored, len(fixes))
	}
	// The blog pipeline still finds the visits on the compressed trace.
	blog, err := p.GenerateBlog(tok, day)
	if err != nil {
		t.Fatal(err)
	}
	if len(blog.Entries) < 2 {
		t.Errorf("compressed trace lost the visits: %d entries\n%s", len(blog.Entries), blog.Rendered)
	}
}

func TestEventDetectionIncremental(t *testing.T) {
	p := bootPlatform(t)
	_, tok, err := p.Users.SignIn("facebook", "facebook:15")
	if err != nil {
		t.Fatal(err)
	}
	center := geo.Point{Lat: 36.9, Lon: 25.6} // open sea, far from the catalog
	dayOne := time.Date(2015, 5, 29, 20, 0, 0, 0, time.UTC)
	dayTwo := dayOne.Add(24 * time.Hour)
	old := workload.GenGathering(newRng(41), center, 100, 40, dayOne, dayOne.Add(2*time.Hour))
	if _, err := p.PushGPS(tok, old); err != nil {
		t.Fatal(err)
	}
	// First incremental run over day one detects the gathering.
	res1, err := p.DetectEvents(context.Background(), EventDetectionParams{
		Eps: 120, MinPts: 10,
		UntilMillis: model.Millis(dayOne.Add(24 * time.Hour)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.NewPOIs) != 1 {
		t.Fatalf("day-one run found %d events", len(res1.NewPOIs))
	}
	if res1.Watermark == 0 {
		t.Fatal("watermark missing")
	}
	// Day two: only 5 fresh fixes near a *new* spot — below MinPts, so an
	// incremental run over (watermark, ∞) must find nothing and must not
	// even scan-in the old gathering again.
	fresh := workload.GenGathering(newRng(42), geo.Point{Lat: 40.5, Lon: 24.5}, 5, 30, dayTwo, dayTwo.Add(time.Hour))
	if _, err := p.PushGPS(tok, fresh); err != nil {
		t.Fatal(err)
	}
	res2, err := p.DetectEvents(context.Background(), EventDetectionParams{
		Eps: 120, MinPts: 10,
		SinceMillis: res1.Watermark,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.TracesScanned != 5 {
		t.Errorf("incremental run scanned %d fixes, want 5", res2.TracesScanned)
	}
	if len(res2.NewPOIs) != 0 {
		t.Errorf("incremental run invented %d events", len(res2.NewPOIs))
	}
	if res2.Watermark <= res1.Watermark {
		t.Error("watermark must advance")
	}
}
