// Trending events: the paper's configurable-granularity trending query —
// "show me the three hottest places visited by my x specific friends the
// last y hours" — plus the non-personalized variant served from the
// precomputed hotness ranking.
//
// Run with: go run ./examples/trending_events
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"modissense"
)

func main() {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 400
	cfg.NetworkPopulation = 800
	cfg.CheckinsPerDay = 3
	p, err := modissense.New(cfg)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}

	// Register a crowd of users whose activity will drive the rankings.
	var token string
	for i := 1; i <= 25; i++ {
		_, tok, err := p.Users.SignIn("foursquare", fmt.Sprintf("foursquare:%d", i))
		if err != nil {
			log.Fatal(err)
		}
		if i == 1 {
			token = tok
		}
	}
	_ = token

	// Collect three days of check-ins.
	since := time.Date(2015, 5, 29, 0, 0, 0, 0, time.UTC)
	until := since.Add(72 * time.Hour)
	stats, err := p.Collect(since, until)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d check-ins from %d users\n", stats.Checkins, stats.UsersScanned)

	bounds := modissense.NewRect(
		modissense.Point{Lat: 34.8, Lon: 19.3},
		modissense.Point{Lat: 41.8, Lon: 28.3},
	)

	// Non-personalized: hottest places of the last 3 days, platform-wide,
	// answered from the trending view the collected check-ins were folded
	// into as they were stored.
	trend, err := p.Trending(context.Background(), &bounds, nil, since, until, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhottest places, all users, last 72h:")
	for i, s := range trend.POIs {
		fmt.Printf("  %d. %-20s %d visits\n", i+1, s.POI.Name, s.Visits)
	}

	// Personalized, tighter granularity: hottest places among 10 specific
	// friends in the final 24 hours only.
	friends := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	personal, err := p.Trending(context.Background(), &bounds, friends, until.Add(-24*time.Hour), until, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nhottest places among 10 chosen friends, last 24h:")
	for i, s := range personal.POIs {
		fmt.Printf("  %d. %-20s %d friend visits\n", i+1, s.POI.Name, s.Visits)
	}
	fmt.Printf("\n(personalized trending latency: %.0f ms simulated)\n", personal.LatencySeconds*1000)
}
