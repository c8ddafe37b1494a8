package repos

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"modissense/internal/geo"
	"modissense/internal/model"
)

func TestPOIRepoGetAllocs(t *testing.T) {
	repo, pois := newTestPOIRepo(t)
	id := pois[11].ID
	if allocs := testing.AllocsPerRun(100, func() { _, _ = repo.Get(id) }); allocs != 0 {
		t.Errorf("Get allocates %v times, want 0", allocs)
	}
}

// TestPOIRepoInsertCopies: the repository keeps its own keyword list —
// trimmed to its length, nil when empty — so a caller reusing the POI it
// inserted cannot reach the stored document.
func TestPOIRepoInsertCopies(t *testing.T) {
	repo := NewPOIRepo()
	p := model.POI{ID: 7, Name: "cafe-7", Keywords: append(make([]string, 0, 8), "cafe", "coffee")}
	if _, err := repo.Insert(p); err != nil {
		t.Fatal(err)
	}
	p.Keywords[0] = "bar"
	p.Name = "renamed"
	got, ok := repo.Get(7)
	if !ok || got.Name != "cafe-7" || !reflect.DeepEqual(got.Keywords, []string{"cafe", "coffee"}) {
		t.Fatalf("Get after mutating the inserted POI = %+v, %v", got, ok)
	}
	if cap(got.Keywords) != len(got.Keywords) {
		t.Errorf("stored keywords have cap %d, len %d: an append by a reader would write into shared memory", cap(got.Keywords), len(got.Keywords))
	}
	if _, err := repo.Insert(model.POI{ID: 8, Keywords: []string{}}); err != nil {
		t.Fatal(err)
	}
	if got, _ := repo.Get(8); got.Keywords != nil {
		t.Errorf("empty keyword list stored as %#v, want nil", got.Keywords)
	}
	if _, err := repo.Insert(model.POI{ID: 7}); err == nil {
		t.Error("duplicate id must fail")
	}
}

// TestCategoryStatsMatchesBruteForce holds the one-pass roll-up to a loop
// over All() that groups on the first keyword.
func TestCategoryStatsMatchesBruteForce(t *testing.T) {
	repo, pois := newTestPOIRepo(t)
	rng := rand.New(rand.NewSource(8))
	for _, p := range pois {
		if err := repo.UpdateHotIn(p.ID, rng.Float64(), 5*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	bare, err := repo.Insert(model.POI{Name: "no-keywords", Lat: 38, Lon: 23.7})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.UpdateHotIn(bare.ID, 0.25, 2); err != nil {
		t.Fatal(err)
	}

	oracle := func(bbox *geo.Rect) map[string]CategoryStat {
		want := map[string]CategoryStat{}
		for _, p := range repo.All() {
			if bbox != nil && !bbox.Contains(p.Point()) {
				continue
			}
			cat := "uncategorized"
			if len(p.Keywords) > 0 {
				cat = p.Keywords[0]
			}
			s, seen := want[cat]
			s.Category = cat
			s.POIs++
			s.AvgHotness += p.Hotness
			s.AvgInterest += p.Interest
			if !seen || p.Hotness > s.MaxHotness {
				s.MaxHotness = p.Hotness
			}
			want[cat] = s
		}
		for cat, s := range want {
			s.AvgHotness /= float64(s.POIs)
			s.AvgInterest /= float64(s.POIs)
			want[cat] = s
		}
		return want
	}

	for _, c := range []struct {
		name string
		bbox *geo.Rect
		cats int // lower bound on the categories the case must produce
	}{
		{"no box", nil, 5},
		{"athens", &geo.Rect{MinLat: 37.8, MinLon: 23.5, MaxLat: 38.2, MaxLon: 24.0}, 2},
		{"empty", &geo.Rect{MinLat: 0, MinLon: 0, MaxLat: 1, MaxLon: 1}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := repo.CategoryStats(c.bbox)
			want := oracle(c.bbox)
			if len(got) != len(want) || len(got) < c.cats {
				t.Fatalf("%d categories, brute force has %d (want at least %d)", len(got), len(want), c.cats)
			}
			if c.bbox == nil {
				if _, ok := want["uncategorized"]; !ok {
					t.Fatal("the keyword-less POI must land in \"uncategorized\"")
				}
			}
			for i, s := range got {
				if i > 0 && got[i-1].Category >= s.Category {
					t.Errorf("categories out of order: %q then %q", got[i-1].Category, s.Category)
				}
				w := want[s.Category]
				if s.POIs != w.POIs || s.MaxHotness != w.MaxHotness ||
					math.Abs(s.AvgHotness-w.AvgHotness) > 1e-12 || math.Abs(s.AvgInterest-w.AvgInterest) > 1e-12 {
					t.Errorf("%q = %+v, brute force %+v", s.Category, s, w)
				}
			}
			if again := repo.CategoryStats(c.bbox); !reflect.DeepEqual(got, again) {
				t.Errorf("two calls disagree:\n%+v\n%+v", got, again)
			}
		})
	}
}

// TestPOIRepoConcurrentAccess runs the readers against the writers; under
// -race it fails on any unguarded access to the catalog.
func TestPOIRepoConcurrentAccess(t *testing.T) {
	repo, pois := newTestPOIRepo(t)
	const writers, readers, rounds = 2, 3, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := pois[(w*rounds+i)%len(pois)]
				if err := repo.UpdateHotIn(p.ID, float64(i), float64(w)); err != nil {
					t.Error(err)
					return
				}
				if _, err := repo.Insert(model.POI{Name: "event", Keywords: []string{"event"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p := pois[(r+i*7)%len(pois)]
				if got, ok := repo.Get(p.ID); !ok || got.ID != p.ID || got.Name != p.Name {
					t.Errorf("Get(%d) = %+v, %v", p.ID, got, ok)
					return
				}
				if i%20 == 0 {
					if all := repo.All(); len(all) < len(pois) {
						t.Errorf("All = %d POIs, want at least %d", len(all), len(pois))
						return
					}
					if stats := repo.CategoryStats(nil); len(stats) == 0 {
						t.Error("CategoryStats over the catalog is empty")
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if got, want := repo.Len(), len(pois)+writers*rounds; got != want {
		t.Errorf("Len = %d after concurrent inserts, want %d", got, want)
	}
}
