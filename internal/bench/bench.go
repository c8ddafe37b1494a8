// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§3). Each experiment is a
// pure function from a configuration to structured rows, printed by the
// modissense-bench binary and shape-tested here. The package's tests also
// hold the three whole-system fault scenarios (TestScenario*), which run on
// the same Dataset builder.
//
// Workload scale: the paper's dataset is 8 500 POIs, 150 000 users and
// ~170 visits per user (≈25M visits) — too large for an in-memory
// laptop run. The harness keeps the POI catalog and the friend-count axis
// at paper scale and divides the per-user visit volume by VisitScale
// (default 10, i.e. ~17 visits/user). Latency is proportional to
// friends × visits-per-user, so measured latencies are 1/VisitScale of the
// paper's; the rendered tables include the rescaled ("paper-equivalent")
// column for direct comparison. Orderings, linearity and crossovers are
// scale-invariant.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"modissense/internal/cluster"
	"modissense/internal/kvstore"
	"modissense/internal/model"
	"modissense/internal/query"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// DatasetConfig sizes the Figure 2/3 synthetic dataset.
type DatasetConfig struct {
	// POIs is the catalog size (paper: 8 500).
	POIs int
	// Users is the number of users with visit histories. It must exceed
	// the largest friend count swept (paper population: 150 000; the
	// harness stores histories only for the queryable prefix).
	Users int
	// VisitScale divides the paper's N(170,10) per-user visit volume.
	VisitScale int
	// Regions is the Visits-table region count (HBase pre-splits).
	Regions int
	// Seed pins all randomness.
	Seed int64
	// Schema selects the Visits layout.
	Schema repos.VisitSchema
}

// DefaultDataset mirrors §3.1 at 1/10 visit volume.
func DefaultDataset() DatasetConfig {
	return DatasetConfig{
		POIs:       workload.PaperPOICount,
		Users:      12000,
		VisitScale: 10,
		Regions:    32,
		Seed:       1,
		Schema:     repos.SchemaReplicated,
	}
}

// Validate checks the dataset configuration.
func (c DatasetConfig) Validate() error {
	if c.POIs < 1 || c.Users < 2 || c.VisitScale < 1 || c.Regions < 1 {
		return fmt.Errorf("bench: invalid dataset config %+v", c)
	}
	return nil
}

// Dataset is a materialized Figure 2/3 dataset bound to one cluster size.
type Dataset struct {
	Config DatasetConfig
	POIs   *repos.POIRepo
	Visits *repos.VisitsRepo
	Engine *query.Engine
	// Cluster is the simulated deployment the engine charges.
	Cluster *cluster.Cluster
	// TotalVisits counts the stored visit rows.
	TotalVisits int
}

// BuildDataset generates and loads the dataset onto a simulated cluster of
// the given node count. Generation is deterministic in (cfg.Seed, nodes is
// irrelevant to content — only to placement).
func BuildDataset(cfg DatasetConfig, nodes int) (*Dataset, error) {
	clus, err := cluster.New(cluster.DefaultConfig(nodes))
	if err != nil {
		return nil, err
	}
	return buildDatasetOnCluster(cfg, clus)
}

// buildDatasetOnCluster loads the dataset onto an existing simulated
// cluster (used by ablations that vary the deployment shape).
func buildDatasetOnCluster(cfg DatasetConfig, clus *cluster.Cluster) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := clus.NumNodes()
	rng := rand.New(rand.NewSource(cfg.Seed))
	pois := workload.GenPOIs(rng, cfg.POIs)

	poiRepo := repos.NewPOIRepo()
	for _, p := range pois {
		if _, err := poiRepo.Insert(p); err != nil {
			return nil, err
		}
	}
	kvOpts := kvstore.DefaultStoreOptions()
	kvOpts.Seed = cfg.Seed
	visitsRepo, err := repos.NewVisitsRepo(cfg.Schema, int64(cfg.Users), cfg.Regions, nodes, kvOpts)
	if err != nil {
		return nil, err
	}
	start := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC)
	mean := workload.PaperVisitMean / float64(cfg.VisitScale)
	sigma := workload.PaperVisitSigma / float64(cfg.VisitScale)
	total := 0
	for uid := int64(1); uid <= int64(cfg.Users); uid++ {
		userRng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + uid))
		for _, v := range workload.GenVisitsForUser(userRng, uid, pois, start, end, mean, sigma) {
			if err := visitsRepo.Store(v); err != nil {
				return nil, err
			}
			total++
		}
	}
	engine, err := query.NewEngine(visitsRepo, poiRepo, clus)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Config:      cfg,
		POIs:        poiRepo,
		Visits:      visitsRepo,
		Engine:      engine,
		Cluster:     clus,
		TotalVisits: total,
	}, nil
}

// Window returns the dataset's full visit time window.
func (d *Dataset) Window() (int64, int64) {
	return model.Millis(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)),
		model.Millis(time.Date(2015, 6, 1, 0, 0, 0, 0, time.UTC))
}

// FriendSample draws f distinct user ids uniformly ("friends for each
// query are picked randomly in a uniform manner").
func (d *Dataset) FriendSample(rng *rand.Rand, f int) []int64 {
	return workload.GenFriendList(rng, 0, d.Config.Users, f)
}

// PaperEquivalent rescales a measured latency to the paper's visit volume.
func (d *Dataset) PaperEquivalent(latency float64) float64 {
	return latency * float64(d.Config.VisitScale)
}
