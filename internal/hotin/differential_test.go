package hotin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"modissense/internal/core"
	"modissense/internal/repos"
)

// TestUpdateHotInMatchesMRJob is the differential oracle for the production
// hotness path: for seeded random check-in streams under both visit schemas,
// the hotness/interest core.Platform.UpdateHotIn writes from the incremental
// view equal, to 1e-9, what the MapReduce job computes from a scan of the
// Visits table over the same bucket-aligned window, and both leave a POI
// with no visit in the window untouched. The comparison is repeated after
// closing and rebooting the platform over its WAL — the view is then rebuilt
// by the boot-time warm scan alone — and once more after further pushes, so
// warm scan and ingest hook are shown to compose into a sufficient source.
func TestUpdateHotInMatchesMRJob(t *testing.T) {
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		for seed := int64(1); seed <= 3; seed++ {
			schema, seed := schema, seed
			t.Run(fmt.Sprintf("%s/seed%d", schema, seed), func(t *testing.T) {
				cfg := core.DefaultConfig() // the view at its default 1 h / 14 d geometry
				cfg.POIs = 120
				cfg.NetworkPopulation = 300
				cfg.MeanFriends = 12
				cfg.ClassifierTrainDocs = 300
				cfg.Seed = seed
				cfg.VisitSchema = schema
				cfg.WALDir = t.TempDir()
				rng := rand.New(rand.NewSource(seed))

				p := boot(t, cfg)
				pushRandom(t, p, rng, 0, 400)
				compareWindows(t, p, rng)
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}

				p = boot(t, cfg)
				compareWindows(t, p, rng)
				pushRandom(t, p, rng, 400, 150)
				compareWindows(t, p, rng)
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// streamStart is where the random streams begin; their check-ins spread over
// the ten days after it, inside the view's 14-day horizon.
var streamStart = time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)

const streamSpan = 10 * 24 * time.Hour

// boot boots a platform over cfg's WAL directory.
func boot(t *testing.T, cfg core.Config) *core.Platform {
	t.Helper()
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pushRandom pushes n check-ins, numbered from first, by five users to the first third of the
// catalog (the rest stays unvisited) at random grades and instants. Instant
// i lies i ms after a random whole second, so no two check-ins of the whole
// stream share a (user, time) row.
func pushRandom(t *testing.T, p *core.Platform, rng *rand.Rand, first, n int) {
	t.Helper()
	visited := p.Catalog()[:len(p.Catalog())/3]
	batches := make([][]core.CheckinPush, 5)
	for i := first; i < first+n; i++ {
		at := streamStart.Add(time.Duration(rng.Int63n(int64(streamSpan/time.Second)))*time.Second + time.Duration(i)*time.Millisecond)
		u := rng.Intn(len(batches))
		batches[u] = append(batches[u], core.CheckinPush{
			POIID: visited[rng.Intn(len(visited))].ID, Time: at.UnixMilli(),
			Grade: float64(1 + rng.Intn(5)), Network: "facebook",
		})
	}
	for u, batch := range batches {
		_, token, err := p.Users.SignIn("facebook", fmt.Sprintf("facebook:%d", u+1))
		if err != nil {
			t.Fatal(err)
		}
		stored, itemErrs, err := p.PushCheckins(token, batch)
		if err != nil || len(itemErrs) != 0 || stored != len(batch) {
			t.Fatalf("push: stored %d of %d, item errors %v, err %v", stored, len(batch), itemErrs, err)
		}
	}
}

// hotIn is one POI's stored metrics.
type hotIn struct{ hotness, interest float64 }

// sentinel is written to every POI before each run, so an untouched POI is
// told apart from one a run set.
var sentinel = hotIn{hotness: 0.123, interest: 0.456}

// resetAndRun writes the sentinel to every POI, runs one refresh and returns
// the POI table's metrics by id.
func resetAndRun(t *testing.T, p *core.Platform, run func() error) map[int64]hotIn {
	t.Helper()
	for _, poi := range p.Catalog() {
		if err := p.POIs.UpdateHotIn(poi.ID, sentinel.hotness, sentinel.interest); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	all := p.POIs.All()
	out := make(map[int64]hotIn, len(all))
	for _, poi := range all {
		out[poi.ID] = hotIn{poi.Hotness, poi.Interest}
	}
	return out
}

// compareWindows runs both implementations over random hour-aligned windows
// of the stream and compares everything they report and write.
func compareWindows(t *testing.T, p *core.Platform, rng *rand.Rand) {
	t.Helper()
	hours := int(streamSpan / time.Hour)
	updated := 0
	for w := 0; w < 6; w++ {
		from := streamStart.Add(time.Duration(rng.Intn(hours)) * time.Hour)
		to := from.Add(time.Duration(1+rng.Intn(72)) * time.Hour)
		var got core.HotInStats
		view := resetAndRun(t, p, func() (err error) {
			got, err = p.UpdateHotIn(from, to)
			return err
		})
		var want Stats
		job := resetAndRun(t, p, func() (err error) {
			// The job's window is inclusive, the view's half-open.
			want, err = Run(p.Visits, p.POIs, Config{FromMillis: from.UnixMilli(), ToMillis: to.UnixMilli() - 1})
			return err
		})
		if got.VisitsAggregated != want.VisitsAggregated || got.POIsUpdated != want.POIsUpdated || got.MaxVisits != want.MaxVisits {
			t.Errorf("window %s..%s: stats %+v, MR job %+v", from, to, got, want)
		}
		updated += want.POIsUpdated
		untouched := 0
		for id, j := range job {
			v := view[id]
			if math.Abs(v.hotness-j.hotness) > 1e-9 || math.Abs(v.interest-j.interest) > 1e-9 {
				t.Errorf("window %s..%s poi %d: view wrote %+v, MR job %+v", from, to, id, v, j)
			}
			if j == sentinel {
				untouched++
			}
		}
		if untouched == 0 || untouched != len(job)-want.POIsUpdated {
			t.Errorf("window %s..%s: %d POIs untouched, want %d", from, to, untouched, len(job)-want.POIsUpdated)
		}
	}
	if updated == 0 {
		t.Fatal("no window updated any POI: the comparison is vacuous")
	}
}
