package modissense_test

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"modissense"
	"modissense/internal/geo"
	"modissense/internal/trajectory"
	"modissense/internal/workload"
)

// greece is the bounding box of the synthetic POI catalog.
var greece = modissense.NewRect(
	modissense.Point{Lat: 34.8, Lon: 19.3},
	modissense.Point{Lat: 41.8, Lon: 28.3},
)

// boot starts a demo-scale platform: 4 simulated worker nodes, a catalog of
// Greek venues and three simulated social networks.
func boot(pois, population int) *modissense.Platform {
	cfg := modissense.DefaultConfig()
	cfg.POIs = pois
	cfg.NetworkPopulation = population
	p, err := modissense.New(cfg)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	return p
}

// Sign a user in through the simulated OAuth flow, collect a week of social
// activity, run the HotIn update, and issue one personalized and one
// trending query.
//
// A trending answer ranks by visits and carries each POI's document as the
// visits were written with it, before HotIn refreshed the catalog; the
// refreshed hotness is read from the catalog itself.
func Example_quickstart() {
	p := boot(400, 500)
	acct, token, err := p.Users.SignIn("facebook", "facebook:1")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.Users.Link(token, "foursquare", "foursquare:1"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user %d signed in with facebook+foursquare\n", acct.UserID)

	// Each collected comment is sentiment-classified at ingest.
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := since.Add(7 * 24 * time.Hour)
	stats, err := p.Collect(since, until)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d check-ins from %d users (%d friend records)\n",
		stats.Checkins, stats.UsersScanned, stats.FriendsStored)
	hot, err := p.UpdateHotIn(since, until)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hotin update: %d POIs refreshed from %d visits\n", hot.POIsUpdated, hot.VisitsAggregated)

	// User 1 is its own best critic here.
	res, err := p.Search(context.Background(), modissense.SearchRequest{
		Token: token, BBox: &greece, Friends: []int64{1},
		From: since, To: until, OrderBy: modissense.ByInterest, Limit: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("personalized top-5 (simulated latency %.0f ms):\n", res.LatencySeconds*1000)
	for i, s := range res.POIs {
		fmt.Printf("  %d. %-15s score %.2f (%d visits)\n", i+1, s.POI.Name, s.Score, s.Visits)
	}

	trend, err := p.Trending(context.Background(), &greece, nil, since, until, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trending top-5:")
	for i, s := range trend.POIs {
		current, _ := p.POIs.Get(s.POI.ID)
		fmt.Printf("  %d. %-15s %d visits, catalog hotness %.2f (answer snapshot %.2f)\n",
			i+1, s.POI.Name, s.Visits, current.Hotness, s.POI.Hotness)
	}
	// Output:
	// user 1 signed in with facebook+foursquare
	// collected 24 check-ins from 1 users (43 friend records)
	// hotin update: 23 POIs refreshed from 24 visits
	// personalized top-5 (simulated latency 10 ms):
	//   1. bakery-0136     score 4.14 (1 visits)
	//   2. bakery-0102     score 4.03 (2 visits)
	//   3. bakery-0074     score 3.93 (1 visits)
	//   4. cafe-0246       score 3.83 (1 visits)
	//   5. bakery-0026     score 3.72 (1 visits)
	// trending top-5:
	//   1. bakery-0102     2 visits, catalog hotness 1.00 (answer snapshot 0.00)
	//   2. restaurant-0001 1 visits, catalog hotness 0.50 (answer snapshot 0.00)
	//   3. cafe-0009       1 visits, catalog hotness 0.50 (answer snapshot 0.00)
	//   4. hotel-0019      1 visits, catalog hotness 0.50 (answer snapshot 0.00)
	//   5. bakery-0026     1 visits, catalog hotness 0.50 (answer snapshot 0.00)
}

// The paper's demo scenario (§4): two users whose friends have opposite
// tastes run the same "restaurant" query on the same area and get different
// answers.
func Example_personalizedSearch() {
	p := boot(600, 500)
	athens := modissense.RectAround(modissense.Point{Lat: 37.9838, Lon: 23.7275}, 25000)
	var fastfood, tavernas []modissense.POI
	for _, poi := range p.Catalog() {
		if !athens.Contains(modissense.Point{Lat: poi.Lat, Lon: poi.Lon}) {
			continue
		}
		switch {
		case strings.HasPrefix(poi.Name, "fastfood"):
			fastfood = append(fastfood, poi)
		case strings.HasPrefix(poi.Name, "taverna"):
			tavernas = append(tavernas, poi)
		}
	}
	fmt.Printf("Athens area: %d fast-food places, %d tavernas\n", len(fastfood), len(tavernas))

	// Friends lo..hi grade the kind they love ≈ 5 and, every fifth visit,
	// pan the other kind. Visits go straight into the Visits repository,
	// the store the Data Collection module writes.
	rng := rand.New(rand.NewSource(7))
	base := time.Date(2015, 5, 1, 12, 0, 0, 0, time.UTC)
	storeVisits := func(lo, hi int64, loved, hated []modissense.POI) {
		for uid := lo; uid <= hi; uid++ {
			for i := 0; i < 15; i++ {
				poi, grade := loved[rng.Intn(len(loved))], 4.2+rng.Float64()*0.8
				if i%5 == 4 {
					poi, grade = hated[rng.Intn(len(hated))], 1+rng.Float64()
				}
				if err := p.Visits.Store(modissense.Visit{
					UserID: uid, Time: base.Add(time.Duration(i) * time.Hour).UnixMilli(),
					Grade: grade, Network: "facebook", POI: poi,
				}); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	storeVisits(1001, 1020, fastfood, tavernas)
	storeVisits(2001, 2020, tavernas, fastfood)

	search := func(name, credentials string, lo, hi int64) {
		_, token, err := p.Users.SignIn("facebook", credentials)
		if err != nil {
			log.Fatal(err)
		}
		var friends []int64
		for id := lo; id <= hi; id++ {
			friends = append(friends, id)
		}
		res, err := p.Search(context.Background(), modissense.SearchRequest{
			Token: token, BBox: &athens, Keyword: "restaurant", Friends: friends,
			From: base.Add(-time.Hour), To: base.Add(24 * time.Hour),
			OrderBy: modissense.ByInterest, Limit: 5,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (simulated latency %.0f ms):\n", name, res.LatencySeconds*1000)
		for i, s := range res.POIs {
			fmt.Printf("  %d. %-13s score %.2f (%d friend visits)\n", i+1, s.POI.Name, s.Score, s.Visits)
		}
	}
	search("user A, fast-food friends", "facebook:21", 1001, 1020)
	search("user B, taverna friends", "facebook:22", 2001, 2020)
	// Output:
	// Athens area: 20 fast-food places, 16 tavernas
	// user A, fast-food friends (simulated latency 14 ms):
	//   1. fastfood-0515 score 4.68 (7 friend visits)
	//   2. fastfood-0191 score 4.67 (13 friend visits)
	//   3. fastfood-0205 score 4.64 (10 friend visits)
	//   4. fastfood-0352 score 4.64 (16 friend visits)
	//   5. fastfood-0391 score 4.64 (16 friend visits)
	// user B, taverna friends (simulated latency 14 ms):
	//   1. taverna-0357  score 4.75 (16 friend visits)
	//   2. taverna-0120  score 4.72 (12 friend visits)
	//   3. taverna-0321  score 4.69 (12 friend visits)
	//   4. taverna-0002  score 4.63 (12 friend visits)
	//   5. taverna-0225  score 4.62 (16 friend visits)
}

// The paper's configurable-granularity trending query: the hottest places
// platform-wide, answered from the trending view the collected check-ins
// were folded into, and the hottest places among x chosen friends over the
// last y hours.
func Example_trendingEvents() {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 400
	cfg.NetworkPopulation = 800
	cfg.CheckinsPerDay = 3
	p, err := modissense.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The signed-in crowd's activity drives the rankings.
	for i := 1; i <= 25; i++ {
		if _, _, err := p.Users.SignIn("foursquare", fmt.Sprintf("foursquare:%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	since := time.Date(2015, 5, 29, 0, 0, 0, 0, time.UTC)
	until := since.Add(72 * time.Hour)
	stats, err := p.Collect(since, until)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d check-ins from %d users\n", stats.Checkins, stats.UsersScanned)

	trend, err := p.Trending(context.Background(), &greece, nil, since, until, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hottest places, all users, last 72h:")
	for i, s := range trend.POIs {
		fmt.Printf("  %d. %-15s %d visits\n", i+1, s.POI.Name, s.Visits)
	}
	friends := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	personal, err := p.Trending(context.Background(), &greece, friends, until.Add(-24*time.Hour), until, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hottest places among 10 chosen friends, last 24h (simulated latency %.0f ms):\n",
		personal.LatencySeconds*1000)
	for i, s := range personal.POIs {
		fmt.Printf("  %d. %-15s %d friend visits\n", i+1, s.POI.Name, s.Visits)
	}
	// Output:
	// collected 203 check-ins from 25 users
	// hottest places, all users, last 72h:
	//   1. restaurant-0068 4 visits
	//   2. bakery-0071     3 visits
	//   3. gallery-0073    3 visits
	// hottest places among 10 chosen friends, last 24h (simulated latency 11 ms):
	//   1. fastfood-0092   2 friend visits
	//   2. bakery-0181     2 friend visits
	//   3. bakery-0322     2 friend visits
}

// MR-DBSCAN event detection discovers a planted gathering (a concert crowd)
// in the GPS trace stream as a new POI, while traces near known POIs are
// filtered out and scattered movement stays noise.
func Example_eventDetection() {
	p := boot(300, 500)
	_, token, err := p.Users.SignIn("twitter", "twitter:1")
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	evening := time.Date(2015, 5, 30, 20, 0, 0, 0, time.UTC)
	push := func(fixes []modissense.GPSFix) int {
		if _, err := p.PushGPS(token, fixes); err != nil {
			log.Fatal(err)
		}
		return len(fixes)
	}

	// 250 devices within ~50 m of an empty Aegean beach for three hours,
	// 120 dwelling at a known POI, and 400 fixes scattered over Greece.
	concert := modissense.Point{Lat: 36.8, Lon: 25.4}
	pushed := push(workload.GenGathering(rng, concert, 250, 50, evening, evening.Add(3*time.Hour)))
	known := p.Catalog()[0]
	pushed += push(workload.GenGathering(rng, modissense.Point{Lat: known.Lat, Lon: known.Lon},
		120, 40, evening, evening.Add(2*time.Hour)))
	bounds := workload.GreeceBounds()
	noise := make([]modissense.GPSFix, 400)
	for i := range noise {
		noise[i] = modissense.GPSFix{
			Lat:  bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat),
			Lon:  bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon),
			Time: evening.UnixMilli(),
		}
	}
	pushed += push(noise)
	fmt.Printf("pushed %d GPS fixes\n", pushed)

	before := p.POIs.Len()
	res, err := p.DetectEvents(context.Background(), modissense.EventDetectionParams{Eps: 120, MinPts: 15})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scanned %d traces, clustered %d, makespan %.2f simulated s\n",
		res.TracesScanned, res.TracesClustered, res.SimulatedSeconds)
	fmt.Printf("catalog grew from %d to %d POIs\n", before, p.POIs.Len())
	for _, poi := range res.NewPOIs {
		fmt.Printf("new POI %q at (%.4f, %.4f), %.0f m from the planted concert\n",
			poi.Name, poi.Lat, poi.Lon, geo.Haversine(concert, poi.Point()))
	}
	// Output:
	// pushed 770 GPS fixes
	// scanned 770 traces, clustered 250, makespan 0.36 simulated s
	// catalog grew from 300 to 301 POIs
	// new POI "event-1" at (36.8000, 25.4000), 4 m from the planted concert
}

// A day of GPS traces becomes stay points matched against the POI catalog,
// a semantic trajectory and a daily blog; annotating a visit and saving the
// blog again replaces that day's blog under the same id.
func Example_blogGeneration() {
	p := boot(300, 500)
	_, token, err := p.Users.SignIn("facebook", "facebook:5")
	if err != nil {
		log.Fatal(err)
	}
	// Fixes every 5 minutes with 40-minute dwells at three stops.
	day := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	catalog := p.Catalog()
	stops := []modissense.POI{catalog[10], catalog[42], catalog[77]}
	fixes := workload.GenGPSDay(rand.New(rand.NewSource(8)), 0, day, stops, 5*time.Minute, 40*time.Minute)
	if _, err := p.PushGPS(token, fixes); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed %d GPS fixes past %s, %s and %s\n", len(fixes), stops[0].Name, stops[1].Name, stops[2].Name)

	blog, err := p.GenerateBlog(token, day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blog %d:\n%s", blog.ID, blog.Rendered)

	blog.Entries[0].Comment = "best coffee in town"
	edited, err := p.Blogs.Save(&trajectory.Blog{UserID: blog.UserID, Date: blog.Day, Title: blog.Title, Entries: blog.Entries})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blog %d after annotation:\n%s", edited.ID, edited.Rendered)
	// Output:
	// pushed 30 GPS fixes past cafe-0011, beach-0043 and bar-0078
	// blog 1:
	// # My day on 2015-05-31
	//
	// 1. 08:00–08:35: cafe-0011
	// 2. 08:55–09:30: beach-0043
	// 3. 09:50–10:25: bar-0078
	// blog 1 after annotation:
	// # My day on 2015-05-31
	//
	// 1. 08:00–08:35: cafe-0011 — best coffee in town
	// 2. 08:55–09:30: beach-0043
	// 3. 09:50–10:25: bar-0078
}
