package hotin

import (
	"math"
	"testing"
	"time"

	"modissense/internal/cluster"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/repos"
)

func setup(t *testing.T) (*repos.VisitsRepo, *repos.POIRepo, []model.POI) {
	t.Helper()
	poiRepo := repos.NewPOIRepo()
	pois := []model.POI{
		{ID: 1, Name: "hot-taverna", Lat: 37.9, Lon: 23.7, Keywords: []string{"restaurant"}},
		{ID: 2, Name: "quiet-museum", Lat: 37.95, Lon: 23.72, Keywords: []string{"museum"}},
		{ID: 3, Name: "loved-bar", Lat: 37.92, Lon: 23.71, Keywords: []string{"bar"}},
	}
	for _, p := range pois {
		if _, err := poiRepo.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	visits, err := repos.NewVisitsRepo(repos.SchemaReplicated, 100, 8, 4, kvstore.DefaultStoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	return visits, poiRepo, pois
}

func at(h int) int64 {
	return model.Millis(time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour))
}

func storeVisit(t *testing.T, visits *repos.VisitsRepo, user int64, poi model.POI, hour int, grade float64) {
	t.Helper()
	if err := visits.Store(model.Visit{UserID: user, Time: at(hour), Grade: grade, POI: poi}); err != nil {
		t.Fatal(err)
	}
}

func TestHotInAggregation(t *testing.T) {
	visits, poiRepo, pois := setup(t)
	// POI 1: 4 visits, mediocre grades. POI 3: 2 visits, great grades.
	// POI 2: one visit outside the window (must be excluded).
	for i := 0; i < 4; i++ {
		storeVisit(t, visits, int64(i+1), pois[0], 2+i, 3)
	}
	storeVisit(t, visits, 5, pois[2], 4, 5)
	storeVisit(t, visits, 6, pois[2], 5, 5)
	storeVisit(t, visits, 7, pois[1], 100, 4) // outside window

	stats, err := Run(visits, poiRepo, Config{FromMillis: at(0), ToMillis: at(24)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VisitsAggregated != 6 {
		t.Errorf("aggregated %d visits, want 6", stats.VisitsAggregated)
	}
	if stats.POIsUpdated != 2 {
		t.Errorf("updated %d POIs, want 2", stats.POIsUpdated)
	}
	if stats.MaxVisits != 4 {
		t.Errorf("max visits = %d, want 4", stats.MaxVisits)
	}
	p1, _ := poiRepo.Get(1)
	p2, _ := poiRepo.Get(2)
	p3, _ := poiRepo.Get(3)
	if p1.Hotness != 1.0 {
		t.Errorf("hottest POI hotness = %g, want 1", p1.Hotness)
	}
	if math.Abs(p3.Hotness-0.5) > 1e-9 {
		t.Errorf("POI 3 hotness = %g, want 0.5", p3.Hotness)
	}
	if p2.Hotness != 0 {
		t.Errorf("out-of-window POI hotness = %g, want 0", p2.Hotness)
	}
	// Interest: POI1 grade 3 → 0.5; POI3 grade 5 → 1.0.
	if math.Abs(p1.Interest-0.5) > 1e-9 {
		t.Errorf("POI 1 interest = %g, want 0.5", p1.Interest)
	}
	if math.Abs(p3.Interest-1.0) > 1e-9 {
		t.Errorf("POI 3 interest = %g, want 1", p3.Interest)
	}
}

func TestHotInEmptyWindow(t *testing.T) {
	visits, poiRepo, pois := setup(t)
	storeVisit(t, visits, 1, pois[0], 50, 4)
	stats, err := Run(visits, poiRepo, Config{FromMillis: at(0), ToMillis: at(10)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VisitsAggregated != 0 || stats.POIsUpdated != 0 {
		t.Errorf("empty window stats = %+v", stats)
	}
}

func TestHotInValidation(t *testing.T) {
	visits, poiRepo, _ := setup(t)
	if _, err := Run(nil, poiRepo, Config{}); err == nil {
		t.Error("nil visits must fail")
	}
	if _, err := Run(visits, nil, Config{}); err == nil {
		t.Error("nil pois must fail")
	}
	if _, err := Run(visits, poiRepo, Config{FromMillis: 10, ToMillis: 5}); err == nil {
		t.Error("inverted window must fail")
	}
	if _, err := Run(visits, poiRepo, Config{MapTasks: -1}); err == nil {
		t.Error("negative map tasks must fail")
	}
}

func TestHotInUnknownPOIsSkipped(t *testing.T) {
	visits, poiRepo, _ := setup(t)
	ghost := model.POI{ID: 999, Name: "ghost"}
	storeVisit(t, visits, 1, ghost, 1, 4)
	stats, err := Run(visits, poiRepo, Config{FromMillis: at(0), ToMillis: at(24)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.VisitsAggregated != 1 || stats.POIsUpdated != 0 {
		t.Errorf("ghost POI stats = %+v", stats)
	}
}

func TestHotInOnClusterReportsDuration(t *testing.T) {
	visits, poiRepo, pois := setup(t)
	for u := int64(1); u <= 50; u++ {
		storeVisit(t, visits, u, pois[int(u)%3], int(u%24), 4)
	}
	clus, err := cluster.New(cluster.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Run(visits, poiRepo, Config{FromMillis: at(0), ToMillis: at(24), Cluster: clus})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SimulatedSeconds <= 0 {
		t.Error("cluster run must report a positive simulated duration")
	}
}

func TestHotInTimeDecay(t *testing.T) {
	visits, poiRepo, pois := setup(t)
	// POI 1: 3 old visits (48h before the window end).
	// POI 3: 2 recent visits (at the window end).
	for i := 0; i < 3; i++ {
		storeVisit(t, visits, int64(i+1), pois[0], 0, 4)
	}
	storeVisit(t, visits, 4, pois[2], 48, 4)
	storeVisit(t, visits, 5, pois[2], 48, 4)

	// Without decay, raw counts win: POI 1 is hottest.
	stats, err := Run(visits, poiRepo, Config{FromMillis: at(0), ToMillis: at(48)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MaxVisits != 3 {
		t.Fatalf("max visits = %d", stats.MaxVisits)
	}
	p1, _ := poiRepo.Get(1)
	p3, _ := poiRepo.Get(3)
	if !(p1.Hotness > p3.Hotness) {
		t.Fatalf("without decay POI 1 (%g) must beat POI 3 (%g)", p1.Hotness, p3.Hotness)
	}

	// With a 12h half-life, the 48h-old visits decay by 2^-4 each, so the
	// two fresh visits win.
	halfLife := at(12) - at(0)
	if _, err := Run(visits, poiRepo, Config{FromMillis: at(0), ToMillis: at(48), DecayHalfLifeMillis: halfLife}); err != nil {
		t.Fatal(err)
	}
	p1, _ = poiRepo.Get(1)
	p3, _ = poiRepo.Get(3)
	if !(p3.Hotness > p1.Hotness) {
		t.Fatalf("with decay POI 3 (%g) must beat POI 1 (%g)", p3.Hotness, p1.Hotness)
	}
	if p3.Hotness != 1.0 {
		t.Errorf("freshest POI must normalize to 1, got %g", p3.Hotness)
	}
	// Interest stays on the [0,1] scale under decay.
	if p3.Interest < 0 || p3.Interest > 1 {
		t.Errorf("interest %g out of [0,1]", p3.Interest)
	}
}
