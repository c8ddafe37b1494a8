// Package workload generates the synthetic datasets of the paper's
// evaluation: a POI catalog shaped like the OpenStreetMap Greece extract
// (8 500 POIs), 150 000 social-network users whose visit counts follow
// N(170, 10²), GPS traces with planted gatherings, and a labeled review
// corpus standing in for the Tripadvisor crawl.
//
// Every generator takes an explicit seed so whole experiments are
// reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math/rand"
	"time"

	"modissense/internal/geo"
	"modissense/internal/model"
)

// Paper-scale constants (documented in DESIGN.md §3).
const (
	// PaperPOICount is the OpenStreetMap Greece POI count used in §3.1.
	PaperPOICount = 8500
	// PaperVisitMean and PaperVisitSigma parameterize the per-user visit
	// count distribution N(170, 10²).
	PaperVisitMean  = 170.0
	PaperVisitSigma = 10.0
)

// GreeceBounds is the bounding box the POI generator fills.
func GreeceBounds() geo.Rect {
	return geo.Rect{MinLat: 34.8, MinLon: 19.3, MaxLat: 41.8, MaxLon: 28.3}
}

// city is one population center of the spatial mixture model.
type city struct {
	name   string
	center geo.Point
	sigma  float64 // POI scatter in meters
	weight float64
}

var greekCities = []city{
	{"athens", geo.Point{Lat: 37.9838, Lon: 23.7275}, 9000, 0.35},
	{"thessaloniki", geo.Point{Lat: 40.6401, Lon: 22.9444}, 7000, 0.18},
	{"patras", geo.Point{Lat: 38.2466, Lon: 21.7346}, 5000, 0.08},
	{"heraklion", geo.Point{Lat: 35.3387, Lon: 25.1442}, 5000, 0.07},
	{"larissa", geo.Point{Lat: 39.6390, Lon: 22.4191}, 4000, 0.05},
	{"volos", geo.Point{Lat: 39.3622, Lon: 22.9420}, 4000, 0.05},
	{"ioannina", geo.Point{Lat: 39.6650, Lon: 20.8537}, 4000, 0.04},
	{"chania", geo.Point{Lat: 35.5138, Lon: 24.0180}, 4000, 0.04},
	{"rhodes", geo.Point{Lat: 36.4349, Lon: 28.2176}, 4000, 0.04},
	{"kalamata", geo.Point{Lat: 37.0389, Lon: 22.1142}, 3500, 0.03},
}

// poiCategories drive names and keyword sets.
var poiCategories = []struct {
	kind     string
	keywords []string
}{
	{"taverna", []string{"restaurant", "greek", "food"}},
	{"restaurant", []string{"restaurant", "food", "dinner"}},
	{"fastfood", []string{"restaurant", "fastfood", "food"}},
	{"cafe", []string{"cafe", "coffee", "breakfast"}},
	{"bar", []string{"bar", "drinks", "nightlife"}},
	{"museum", []string{"museum", "history", "culture"}},
	{"beach", []string{"beach", "swimming", "summer"}},
	{"hotel", []string{"hotel", "accommodation"}},
	{"club", []string{"club", "music", "nightlife"}},
	{"gallery", []string{"gallery", "art", "culture"}},
	{"bakery", []string{"bakery", "food", "breakfast"}},
	{"theater", []string{"theater", "culture", "shows"}},
}

// GenPOIs generates n POIs with the city-mixture spatial model. 15% of
// POIs scatter uniformly over the countryside, the rest cluster around
// cities, mimicking the density profile of the OSM extract.
func GenPOIs(rng *rand.Rand, n int) []model.POI {
	bounds := GreeceBounds()
	pois := make([]model.POI, n)
	for i := range pois {
		var pt geo.Point
		if rng.Float64() < 0.15 {
			pt = geo.Point{
				Lat: bounds.MinLat + rng.Float64()*(bounds.MaxLat-bounds.MinLat),
				Lon: bounds.MinLon + rng.Float64()*(bounds.MaxLon-bounds.MinLon),
			}
		} else {
			c := pickCity(rng)
			pt = geo.Point{
				Lat: c.center.Lat + geo.MetersToLatDegrees(rng.NormFloat64()*c.sigma),
				Lon: c.center.Lon + geo.MetersToLonDegrees(rng.NormFloat64()*c.sigma, c.center.Lat),
			}
			pt = clampInto(pt, bounds)
		}
		cat := poiCategories[rng.Intn(len(poiCategories))]
		pois[i] = model.POI{
			ID:       int64(i + 1),
			Name:     fmt.Sprintf("%s-%04d", cat.kind, i+1),
			Lat:      pt.Lat,
			Lon:      pt.Lon,
			Keywords: append([]string(nil), cat.keywords...),
		}
	}
	return pois
}

func pickCity(rng *rand.Rand) city {
	r := rng.Float64() * totalCityWeight
	for _, c := range greekCities {
		if r < c.weight {
			return c
		}
		r -= c.weight
	}
	return greekCities[0]
}

var totalCityWeight = func() float64 {
	var t float64
	for _, c := range greekCities {
		t += c.weight
	}
	return t
}()

func clampInto(p geo.Point, r geo.Rect) geo.Point {
	if p.Lat < r.MinLat {
		p.Lat = r.MinLat
	}
	if p.Lat > r.MaxLat {
		p.Lat = r.MaxLat
	}
	if p.Lon < r.MinLon {
		p.Lon = r.MinLon
	}
	if p.Lon > r.MaxLon {
		p.Lon = r.MaxLon
	}
	return p
}

// GenUsers generates the social-network population with linked networks.
func GenUsers(rng *rand.Rand, n int) []model.User {
	networks := []string{"facebook", "twitter", "foursquare"}
	users := make([]model.User, n)
	for i := range users {
		linked := []string{networks[rng.Intn(3)]}
		if rng.Float64() < 0.4 {
			second := networks[rng.Intn(3)]
			if second != linked[0] {
				linked = append(linked, second)
			}
		}
		users[i] = model.User{
			ID:       int64(i + 1),
			Name:     fmt.Sprintf("user-%06d", i+1),
			Networks: linked,
		}
	}
	return users
}

// VisitCount draws one per-user visit count from N(mean, sigma²),
// truncated at 1.
func VisitCount(rng *rand.Rand, mean, sigma float64) int {
	n := int(mean + sigma*rng.NormFloat64() + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// GenVisitsForUser generates one user's visit history over the time span.
// Users have a home city bias: most visits hit POIs near one of their two
// favorite cities, with a preference tilt (grade distribution) that gives
// each user a consistent taste profile — the property the demo's
// personalized-search scenario depends on.
func GenVisitsForUser(rng *rand.Rand, userID int64, pois []model.POI, start, end time.Time, mean, sigma float64) []model.Visit {
	count := VisitCount(rng, mean, sigma)
	visits := make([]model.Visit, count)
	span := end.Sub(start)
	// Taste profile: the user likes ~60% of categories; visits to liked
	// categories grade high, others low.
	likes := map[string]bool{}
	for _, c := range poiCategories {
		if rng.Float64() < 0.6 {
			likes[c.keywords[0]] = true
		}
	}
	for i := range visits {
		poi := pois[rng.Intn(len(pois))]
		liked := len(poi.Keywords) > 0 && likes[poi.Keywords[0]]
		var grade float64
		if liked {
			grade = 4 + rng.Float64() // 4..5
		} else {
			grade = 1 + rng.Float64()*2 // 1..3
		}
		visits[i] = model.Visit{
			UserID:  userID,
			Time:    model.Millis(start.Add(time.Duration(rng.Int63n(int64(span))))),
			Grade:   grade,
			Network: []string{"facebook", "twitter", "foursquare"}[rng.Intn(3)],
			POI:     poi,
		}
	}
	return visits
}

// GenFriendList picks f distinct friend ids uniformly from the population
// (excluding self), matching §3.1 ("friends for each query are picked
// randomly in a uniform manner").
func GenFriendList(rng *rand.Rand, self int64, population, f int) []int64 {
	if f > population-1 {
		f = population - 1
	}
	seen := make(map[int64]bool, f)
	out := make([]int64, 0, f)
	for len(out) < f {
		id := int64(rng.Intn(population) + 1)
		if id == self || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// GenGPSDay generates one user's GPS trace for a day: dwells at `stops`
// POIs connected by movement segments, sampled every sampleEvery. The
// returned fixes are time-ordered.
func GenGPSDay(rng *rand.Rand, userID int64, day time.Time, stops []model.POI, sampleEvery, dwell time.Duration) []model.GPSFix {
	var fixes []model.GPSFix
	at := time.Date(day.Year(), day.Month(), day.Day(), 8, 0, 0, 0, time.UTC)
	emit := func(p geo.Point) {
		jLat := geo.MetersToLatDegrees(rng.NormFloat64() * 8)
		jLon := geo.MetersToLonDegrees(rng.NormFloat64()*8, p.Lat)
		fixes = append(fixes, model.GPSFix{
			UserID: userID,
			Lat:    p.Lat + jLat,
			Lon:    p.Lon + jLon,
			Time:   model.Millis(at),
		})
		at = at.Add(sampleEvery)
	}
	for si, stop := range stops {
		// Dwell at the stop.
		samples := int(dwell / sampleEvery)
		if samples < 2 {
			samples = 2
		}
		for s := 0; s < samples; s++ {
			emit(stop.Point())
		}
		// Travel toward the next stop with sparse samples.
		if si+1 < len(stops) {
			next := stops[si+1]
			for _, f := range []float64{0.25, 0.5, 0.75} {
				emit(geo.Point{
					Lat: stop.Lat + (next.Lat-stop.Lat)*f,
					Lon: stop.Lon + (next.Lon-stop.Lon)*f,
				})
			}
		}
	}
	return fixes
}

// GenGathering plants a dense crowd event: n fixes from distinct users
// within sigma meters of the center during the time window.
func GenGathering(rng *rand.Rand, center geo.Point, n int, sigmaMeters float64, start, end time.Time) []model.GPSFix {
	fixes := make([]model.GPSFix, n)
	span := end.Sub(start)
	for i := range fixes {
		fixes[i] = model.GPSFix{
			UserID: int64(i + 1),
			Lat:    center.Lat + geo.MetersToLatDegrees(rng.NormFloat64()*sigmaMeters),
			Lon:    center.Lon + geo.MetersToLonDegrees(rng.NormFloat64()*sigmaMeters, center.Lat),
			Time:   model.Millis(start.Add(time.Duration(rng.Int63n(int64(span))))),
		}
	}
	return fixes
}
