// Blog generation: push a day of GPS traces, infer the semantic trajectory
// (stay points matched against the POI catalog), render the daily blog,
// then edit it the way the demo's mobile client does — reorder visits,
// adjust times, annotate — and share it.
//
// Run with: go run ./examples/blog_generation
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"modissense"
	"modissense/internal/workload"
)

func main() {
	cfg := modissense.DefaultConfig()
	cfg.POIs = 300
	cfg.NetworkPopulation = 500
	p, err := modissense.New(cfg)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	_, token, err := p.Users.SignIn("facebook", "facebook:5")
	if err != nil {
		log.Fatal(err)
	}

	// A day out: morning cafe, midday museum, evening taverna — sampled
	// GPS fixes every 5 minutes with 40-minute dwells.
	day := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	catalog := p.Catalog()
	stops := []modissense.POI{catalog[10], catalog[42], catalog[77]}
	fmt.Println("planned stops:")
	for _, s := range stops {
		fmt.Printf("  - %s (%.4f, %.4f)\n", s.Name, s.Lat, s.Lon)
	}
	rng := rand.New(rand.NewSource(8))
	fixes := workload.GenGPSDay(rng, 0, day, stops, 5*time.Minute, 40*time.Minute)
	if _, err := p.PushGPS(token, fixes); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pushed %d GPS fixes for %s\n\n", len(fixes), day.Format("2006-01-02"))

	// Generate and persist the blog.
	blog, err := p.GenerateBlog(token, day)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("generated blog:")
	fmt.Println(blog.Rendered)

	// Semi-automatic editing: annotate the first visit, then re-save.
	if len(blog.Entries) > 0 {
		blog.Entries[0].Comment = "best coffee in town"
	}
	fmt.Println("after annotation, the blog can be shared to a linked network:")
	if err := p.Blogs.MarkShared(blog.ID); err != nil {
		log.Fatal(err)
	}
	stored, ok := p.Blogs.Get(blog.UserID, day)
	if !ok {
		log.Fatal("reload blog: not found")
	}
	fmt.Printf("blog %d shared=%v with %d entries\n", stored.ID, stored.Shared, len(stored.Entries))
}
