// Quickstart: boot a platform, register a user through simulated OAuth,
// collect a week of social activity, run the HotIn update, and issue one
// personalized and one trending query.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"modissense"
)

func main() {
	// Boot a demo-scale platform: 4 simulated worker nodes, a POI catalog
	// of Greek venues, three simulated social networks.
	cfg := modissense.DefaultConfig()
	cfg.POIs = 400
	cfg.NetworkPopulation = 500
	p, err := modissense.New(cfg)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	fmt.Printf("platform up: %d POIs, %d-node cluster, networks %v\n",
		p.POIs.Len(), cfg.Nodes, p.Users.Networks())

	// Sign in with social credentials (no username/password — OAuth only).
	acct, token, err := p.Users.SignIn("facebook", "facebook:1")
	if err != nil {
		log.Fatalf("sign in: %v", err)
	}
	if _, err := p.Users.Link(token, "foursquare", "foursquare:1"); err != nil {
		log.Fatalf("link: %v", err)
	}
	fmt.Printf("signed in as user %d with networks facebook+foursquare\n", acct.UserID)

	// Collect one week of check-ins and comments from the linked networks;
	// each comment is sentiment-classified at ingest.
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := since.Add(7 * 24 * time.Hour)
	stats, err := p.Collect(since, until)
	if err != nil {
		log.Fatalf("collect: %v", err)
	}
	fmt.Printf("collected %d check-ins from %d users (%d friend records)\n",
		stats.Checkins, stats.UsersScanned, stats.FriendsStored)

	// Refresh the POI table's hotness/interest over the window from the
	// trending view the collected check-ins were folded into.
	hot, err := p.UpdateHotIn(since, until)
	if err != nil {
		log.Fatalf("hotin: %v", err)
	}
	fmt.Printf("hotin update: %d POIs refreshed from %d visits\n",
		hot.POIsUpdated, hot.VisitsAggregated)

	// Personalized search: top venues in all of Greece judged by the
	// user's own visit history (user 1 is its own best critic here).
	bounds := modissense.NewRect(
		modissense.Point{Lat: 34.8, Lon: 19.3},
		modissense.Point{Lat: 41.8, Lon: 28.3},
	)
	res, err := p.Search(context.Background(), modissense.SearchRequest{
		Token:   token,
		BBox:    &bounds,
		Friends: []int64{1},
		From:    since,
		To:      until,
		OrderBy: modissense.ByInterest,
		Limit:   5,
	})
	if err != nil {
		log.Fatalf("search: %v", err)
	}
	fmt.Printf("\npersonalized top-5 (simulated latency %.0f ms):\n", res.LatencySeconds*1000)
	for i, s := range res.POIs {
		fmt.Printf("  %d. %-20s score %.2f (%d visits)\n", i+1, s.POI.Name, s.Score, s.Visits)
	}

	// Trending: the hottest places platform-wide, from the precomputed
	// hotness ranking.
	trend, err := p.Trending(context.Background(), &bounds, nil, since, until, 5)
	if err != nil {
		log.Fatalf("trending: %v", err)
	}
	fmt.Println("\ntrending top-5 (non-personalized):")
	for i, s := range trend.POIs {
		fmt.Printf("  %d. %-20s hotness %.2f\n", i+1, s.POI.Name, s.POI.Hotness)
	}
}
