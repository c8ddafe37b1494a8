package repos

import (
	"sync"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/trajectory"
)

func testBlog(userID int64, day time.Time) *trajectory.Blog {
	return trajectory.BuildBlog(userID, day, []trajectory.Visit{{
		Stay:    trajectory.StayPoint{Center: geo.Point{Lat: 37.98, Lon: 23.72}, Arrival: day.Add(10 * time.Hour), Departure: day.Add(11 * time.Hour), Fixes: 10},
		POI:     trajectory.POIRef{ID: 1, Name: "Syntagma Square", Pt: geo.Point{Lat: 37.98, Lon: 23.72}},
		Matched: true,
	}})
}

// TestBlogsRepoConcurrentSaveOneDay: saves of one (user, day) racing each
// other leave one blog, and every one of them reports its id.
func TestBlogsRepoConcurrentSaveOneDay(t *testing.T) {
	const rounds, savers = 50, 8
	day := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	for round := 0; round < rounds; round++ {
		repo := NewBlogsRepo()
		ids := make([]int64, savers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				stored, err := repo.Save(testBlog(42, day))
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = stored.ID
			}(i)
		}
		close(start)
		wg.Wait()
		list := repo.ListUser(42)
		if len(list) != 1 {
			t.Fatalf("round %d: %d blogs for one day after %d concurrent saves", round, len(list), savers)
		}
		for i, id := range ids {
			if id != list[0].ID {
				t.Fatalf("round %d: save %d returned id %d, the stored blog is %d", round, i, id, list[0].ID)
			}
		}
	}
}

// TestBlogsRepoCopies: neither the blog handed to Save nor a StoredBlog
// returned by Save, Get or ListUser shares entries with the stored blog.
func TestBlogsRepoCopies(t *testing.T) {
	repo := NewBlogsRepo()
	day := time.Date(2015, 5, 31, 0, 0, 0, 0, time.UTC)
	blog := testBlog(42, day)
	saved, err := repo.Save(blog)
	if err != nil {
		t.Fatal(err)
	}
	blog.Entries[0].Comment = "edited after save"
	saved.Entries[0].Comment = "edited the returned copy"
	got, ok := repo.Get(42, day)
	if !ok {
		t.Fatal("Get found no blog")
	}
	got.Entries[0].POI.Name = "edited the read copy"
	list := repo.ListUser(42)
	if len(list) != 1 {
		t.Fatalf("ListUser = %v", list)
	}
	list[0].Entries[0].Comment = "edited the listed copy"
	again, _ := repo.Get(42, day)
	if e := again.Entries[0]; e.Comment != "" || e.POI.Name != "Syntagma Square" {
		t.Errorf("stored entry = %+v, want it as first saved", e)
	}
}
