package query

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"modissense/internal/dbscan"
	"modissense/internal/geo"
	"modissense/internal/repos"
)

// TestLatencyIsAFunctionOfTheWork: the same work reports bit-equal simulated
// latencies however often it is asked — one query, a view-served trending
// read, and each member of a concurrent batch. On a shared
// clock a latency was (clock + x) − clock, which differs from x in the last
// bits once the clock has moved.
func TestLatencyIsAFunctionOfTheWork(t *testing.T) {
	f := newFixtureVisits(t, repos.SchemaReplicated, 4, 200, 40)
	from, to := window()
	ctx := context.Background()
	spec := Spec{FriendIDs: friendRange(1, 120), FromMillis: from, ToMillis: to, Limit: 10, NoCache: true}
	first, err := f.engine.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Spec, 8)
	for i := range batch {
		batch[i] = spec
		batch[i].FriendIDs = friendRange(int64(1+10*i), int64(100+10*i))
	}
	firstBatch, err := f.engine.RunConcurrent(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if firstBatch[len(batch)-1].LatencySeconds <= first.LatencySeconds {
		t.Fatalf("the batch's members must queue behind each other: last %g s, alone %g s",
			firstBatch[len(batch)-1].LatencySeconds, first.LatencySeconds)
	}
	attachView(t, f)
	trending := Spec{FromMillis: from, ToMillis: to, Limit: 10}
	firstTrend, err := f.engine.Trending(ctx, trending)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		again, err := f.engine.Run(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if again.LatencySeconds != first.LatencySeconds {
			t.Errorf("round %d: the same query answered %v s, first %v s", round, again.LatencySeconds, first.LatencySeconds)
		}
		againBatch, err := f.engine.RunConcurrent(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if againBatch[i].LatencySeconds != firstBatch[i].LatencySeconds {
				t.Errorf("round %d: batch member %d answered %v s, first %v s",
					round, i, againBatch[i].LatencySeconds, firstBatch[i].LatencySeconds)
			}
		}
		trend, err := f.engine.Trending(ctx, trending)
		if err != nil {
			t.Fatal(err)
		}
		if trend.LatencySeconds != firstTrend.LatencySeconds {
			t.Errorf("round %d: the same trending read answered %v s, first %v s", round, trend.LatencySeconds, firstTrend.LatencySeconds)
		}
	}
}

// TestConcurrentSimulationsShareNothing runs queries and MR-DBSCAN jobs on
// one cluster from two goroutines. Each owns its simulation, so the race
// detector stays silent and every run reports what the first of its kind
// did. (Event detection used to schedule on the engine's cluster without the
// engine's simulation lock.)
func TestConcurrentSimulationsShareNothing(t *testing.T) {
	f := newFixture(t, repos.SchemaReplicated, 4, 60)
	from, to := window()
	spec := Spec{FriendIDs: friendRange(1, 40), FromMillis: from, ToMillis: to, Limit: 10, NoCache: true}
	rng := rand.New(rand.NewSource(5))
	pts := make([]geo.Point, 80)
	for i := range pts {
		pts[i] = geo.Point{Lat: 37 + rng.Float64()*0.002, Lon: 25 + rng.Float64()*0.002}
	}
	detect := func() (float64, error) {
		res, err := dbscan.MRDBSCAN(pts, dbscan.Params{Eps: 100, MinPts: 5}, dbscan.MROptions{Partitions: 4, Cluster: f.engine.clus})
		if err != nil {
			return 0, err
		}
		return res.SimulatedSeconds, nil
	}
	search := func() (float64, error) {
		res, err := f.engine.Run(context.Background(), spec)
		if err != nil {
			return 0, err
		}
		return res.LatencySeconds, nil
	}
	var wg sync.WaitGroup
	for name, run := range map[string]func() (float64, error){"search": search, "detection": detect} {
		want, err := run()
		if err != nil || want <= 0 {
			t.Fatalf("%s: %v s, %v", name, want, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if got, err := run(); err != nil || got != want {
					t.Errorf("%s %d: %v s, %v; alone it took %v s", name, i, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
