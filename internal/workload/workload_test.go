package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"modissense/internal/geo"
	"modissense/internal/model"
	"modissense/internal/textproc"
)

func TestGenPOIs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pois := GenPOIs(rng, 2000)
	if len(pois) != 2000 {
		t.Fatalf("got %d POIs", len(pois))
	}
	bounds := GreeceBounds()
	ids := map[int64]bool{}
	athens := 0
	for _, p := range pois {
		if !bounds.Contains(p.Point()) {
			t.Fatalf("POI %d outside Greece bounds: %v", p.ID, p.Point())
		}
		if ids[p.ID] {
			t.Fatalf("duplicate POI id %d", p.ID)
		}
		ids[p.ID] = true
		if len(p.Keywords) == 0 || p.Name == "" {
			t.Fatalf("POI %d missing metadata", p.ID)
		}
		if geo.Haversine(p.Point(), geo.Point{Lat: 37.9838, Lon: 23.7275}) < 30000 {
			athens++
		}
	}
	// The city mixture must concentrate a solid share near Athens.
	if athens < 400 {
		t.Errorf("only %d/2000 POIs near Athens; city mixture broken", athens)
	}
}

func TestGenPOIsDeterministic(t *testing.T) {
	a := GenPOIs(rand.New(rand.NewSource(7)), 100)
	b := GenPOIs(rand.New(rand.NewSource(7)), 100)
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Lat != b[i].Lat || a[i].Lon != b[i].Lon || a[i].Name != b[i].Name {
			t.Fatalf("generation not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestVisitCountDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	var sum, sumSq float64
	within := 0
	for i := 0; i < n; i++ {
		c := float64(VisitCount(rng, PaperVisitMean, PaperVisitSigma))
		sum += c
		sumSq += c * c
		if c >= 140 && c <= 200 {
			within++
		}
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean-PaperVisitMean) > 1 {
		t.Errorf("mean = %.2f, want ≈170", mean)
	}
	if math.Abs(std-PaperVisitSigma) > 1 {
		t.Errorf("std = %.2f, want ≈10", std)
	}
	// The paper's footnote: "the vast majority of the users has performed
	// between 140 and 200 visits" — that's ±3σ.
	if frac := float64(within) / float64(n); frac < 0.99 {
		t.Errorf("only %.3f of counts within [140,200]", frac)
	}
}

func TestGenVisitsForUser(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pois := GenPOIs(rng, 200)
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	visits := GenVisitsForUser(rng, 42, pois, start, end, PaperVisitMean, PaperVisitSigma)
	if len(visits) < 140 || len(visits) > 200 {
		t.Errorf("visit count %d outside expected range", len(visits))
	}
	gradeBuckets := map[bool]int{}
	for _, v := range visits {
		if v.UserID != 42 {
			t.Fatal("wrong user id")
		}
		if v.Grade < 1 || v.Grade > 5 {
			t.Fatalf("grade %g out of [1,5]", v.Grade)
		}
		if v.Time < model.Millis(start) || v.Time > model.Millis(end) {
			t.Fatalf("time %d out of range", v.Time)
		}
		if v.POI.ID == 0 || v.POI.Name == "" {
			t.Fatal("visit must embed full POI info (replicated schema)")
		}
		gradeBuckets[v.Grade >= 4]++
	}
	// The taste profile must produce both liked and disliked visits.
	if gradeBuckets[true] == 0 || gradeBuckets[false] == 0 {
		t.Errorf("degenerate taste profile: %v", gradeBuckets)
	}
}

func TestGenFriendList(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	friends := GenFriendList(rng, 17, 1000, 200)
	if len(friends) != 200 {
		t.Fatalf("got %d friends", len(friends))
	}
	seen := map[int64]bool{}
	for _, f := range friends {
		if f == 17 {
			t.Fatal("friend list contains self")
		}
		if f < 1 || f > 1000 {
			t.Fatalf("friend id %d out of population", f)
		}
		if seen[f] {
			t.Fatalf("duplicate friend %d", f)
		}
		seen[f] = true
	}
	// Requesting more friends than the population caps out.
	all := GenFriendList(rng, 1, 10, 50)
	if len(all) != 9 {
		t.Errorf("capped friend list = %d, want 9", len(all))
	}
}

func TestGenGPSDayProducesDetectableStays(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pois := GenPOIs(rng, 50)
	day := time.Date(2015, 5, 30, 0, 0, 0, 0, time.UTC)
	stops := []model.POI{pois[0], pois[1], pois[2]}
	fixes := GenGPSDay(rng, 9, day, stops, 5*time.Minute, 40*time.Minute)
	if len(fixes) == 0 {
		t.Fatal("no fixes generated")
	}
	for i := 1; i < len(fixes); i++ {
		if fixes[i].Time < fixes[i-1].Time {
			t.Fatal("fixes not time-ordered")
		}
	}
	// Around each stop there must be a dense run of ≥ 8 samples.
	for _, stop := range stops {
		near := 0
		for _, f := range fixes {
			if geo.Haversine(f.Point(), stop.Point()) < 100 {
				near++
			}
		}
		if near < 8 {
			t.Errorf("stop %s has only %d nearby fixes", stop.Name, near)
		}
	}
}

func TestGenGathering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	center := geo.Point{Lat: 37.97, Lon: 23.73}
	start := time.Date(2015, 5, 30, 20, 0, 0, 0, time.UTC)
	fixes := GenGathering(rng, center, 300, 50, start, start.Add(3*time.Hour))
	if len(fixes) != 300 {
		t.Fatalf("got %d fixes", len(fixes))
	}
	within200 := 0
	for _, f := range fixes {
		if geo.Haversine(f.Point(), center) < 200 {
			within200++
		}
	}
	if within200 < 280 {
		t.Errorf("gathering too diffuse: %d/300 within 200 m", within200)
	}
}

func TestReviewCorpusOptionsValidate(t *testing.T) {
	bad := DefaultReviewOptions()
	bad.MaxNoise = 0.01 // below base
	if err := bad.Validate(); err == nil {
		t.Error("max < base must fail")
	}
	bad = DefaultReviewOptions()
	bad.RampDocs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ramp must fail")
	}
	if _, err := GenReviews(rand.New(rand.NewSource(1)), 10, bad); err == nil {
		t.Error("GenReviews must validate options")
	}
}

func TestNoiseSchedule(t *testing.T) {
	o := DefaultReviewOptions()
	if o.noiseAt(0) != o.BaseNoise || o.noiseAt(o.CleanDocs-1) != o.BaseNoise {
		t.Error("clean prefix must have base noise")
	}
	mid := o.noiseAt(o.CleanDocs + o.RampDocs/2)
	if mid <= o.BaseNoise || mid >= o.MaxNoise {
		t.Errorf("mid-ramp noise %g out of (base,max)", mid)
	}
	deep := o.noiseAt(o.CleanDocs + 10*o.RampDocs)
	if deep != o.MaxNoise {
		t.Errorf("deep noise %g, want max %g", deep, o.MaxNoise)
	}
}

func TestGenReviewsClassifiable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	docs, err := GenReviews(rng, 500, DefaultReviewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 500 {
		t.Fatalf("got %d docs", len(docs))
	}
	nb, err := textproc.TrainNaiveBayes(docs, textproc.OptimizedOptions())
	if err != nil {
		t.Fatal(err)
	}
	test := GenTestReviews(rand.New(rand.NewSource(9)), 500)
	acc := textproc.Evaluate(nb, test).Accuracy()
	if acc < 0.85 {
		t.Errorf("clean-corpus accuracy %.3f too low; corpus not learnable", acc)
	}
}

// TestFigure4ShapeInMiniature is the workload-level guarantee behind the
// Figure 4 reproduction: accuracy at the quality threshold (1000 docs, the
// 500× scaled analogue of the paper's 500 k) beats accuracy with far more
// (noisy) training data, and the optimized pipeline beats the baseline at
// both sizes.
func TestFigure4ShapeInMiniature(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	opts := DefaultReviewOptions()
	corpus, err := GenReviews(rng, 8000, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := GenTestReviews(rand.New(rand.NewSource(11)), 1000)
	accAt := func(n int, cfg textproc.PipelineOptions) float64 {
		nb, err := textproc.TrainNaiveBayes(corpus[:n], cfg)
		if err != nil {
			t.Fatal(err)
		}
		return textproc.Evaluate(nb, test).Accuracy()
	}
	peak := accAt(opts.CleanDocs, textproc.OptimizedOptions())
	deep := accAt(8000, textproc.OptimizedOptions())
	if peak <= deep {
		t.Errorf("accuracy must degrade past the threshold: %d docs → %.3f, 8000 docs → %.3f", opts.CleanDocs, peak, deep)
	}
	if peak < 0.9 {
		t.Errorf("peak accuracy %.3f too low", peak)
	}
	if base := accAt(opts.CleanDocs, textproc.BaselineOptions()); base >= peak {
		t.Errorf("optimized (%.3f) must beat baseline (%.3f) at the threshold", peak, base)
	}
	if base := accAt(8000, textproc.BaselineOptions()); base >= deep {
		t.Errorf("optimized (%.3f) must beat baseline (%.3f) deep in the corpus", deep, base)
	}
}
