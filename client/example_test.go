package client_test

import (
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"modissense"
	"modissense/client"
)

// Drive a MoDisSENSE server purely through the typed HTTP client, the path
// an external application (or the paper's mobile frontends) takes. An
// in-process httptest server keeps the example self-contained; point the
// client at any modissense-server URL in real use.
func ExampleClient() {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 300
	cfg.NetworkPopulation = 400
	p, err := modissense.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(modissense.NewHandler(p))
	defer srv.Close()
	c, err := client.New(srv.URL, nil)
	if err != nil {
		log.Fatal(err)
	}

	sess, err := c.SignIn("facebook", "facebook:1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signed in as user %d, token issued: %v\n", sess.UserID, sess.Token != "")
	if sess, err = c.Link("foursquare", "foursquare:1"); err != nil {
		log.Fatal(err)
	}
	friends, err := c.Friends("")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d friends across %v\n", len(friends), sess.Networks)

	// The admin surface: collect a week, refresh hotness.
	since := time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	until := since.Add(7 * 24 * time.Hour)
	collected, err := c.AdminCollect(since, until)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %v check-ins\n", collected["Checkins"])
	if _, err := c.AdminHotIn(since, until); err != nil {
		log.Fatal(err)
	}

	res, err := c.Search(client.SearchParams{
		MinLat: 34.8, MinLon: 19.3, MaxLat: 41.8, MaxLon: 28.3,
		Friends: []int64{1},
		From:    since, To: until,
		OrderBy: "interest",
		Limit:   3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-3 by friends' opinion (simulated latency %.0f ms):\n", res.LatencySeconds*1000)
	for i, s := range res.POIs {
		fmt.Printf("  %d. %-12s %.2f\n", i+1, s.POI.Name, s.Score)
	}

	stats, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server stats: %v POIs, %v visit regions, schema %v\n",
		stats["pois"], stats["visit_regions"], stats["visit_schema"])
	// Output:
	// signed in as user 1, token issued: true
	// 43 friends across [facebook foursquare]
	// collected 24 check-ins
	// top-3 by friends' opinion (simulated latency 10 ms):
	//   1. taverna-0002 4.03
	//   2. bar-0274     3.93
	//   3. cafe-0246    3.83
	// server stats: 300 POIs, 16 visit regions, schema replicated
}
