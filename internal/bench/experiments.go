package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"modissense/internal/cluster"
	"modissense/internal/geo"
	"modissense/internal/query"
	"modissense/internal/repos"
	"modissense/internal/workload"
)

// workloadFriends draws n distinct user ids from [1, users].
func workloadFriends(rng *rand.Rand, users, n int) []int64 {
	return workload.GenFriendList(rng, 0, users, n)
}

// athensBox is the selective Athens-area query box used by the ablations.
func athensBox() geo.Rect {
	return geo.RectAround(geo.Point{Lat: 37.9838, Lon: 23.7275}, 30000)
}

// Fig2Config parameterizes the Figure 2 experiment: single-query latency
// vs number of SN friends across cluster sizes.
type Fig2Config struct {
	Dataset DatasetConfig
	// FriendCounts is the x-axis (paper: 500–9 500 step 1 500).
	FriendCounts []int
	// Nodes are the cluster sizes (paper: 4, 8, 16).
	Nodes []int
	// Repetitions averages each point (paper: 10).
	Repetitions int
	Seed        int64
}

// DefaultFig2 mirrors the paper's sweep.
func DefaultFig2() Fig2Config {
	return Fig2Config{
		Dataset:      DefaultDataset(),
		FriendCounts: []int{500, 2000, 3500, 5000, 6500, 8000, 9500},
		Nodes:        []int{4, 8, 16},
		Repetitions:  3,
		Seed:         42,
	}
}

// Fig2Point is one measured point of Figure 2.
type Fig2Point struct {
	Nodes          int
	Friends        int
	LatencySeconds float64
	// PaperEquivalentSeconds rescales to the paper's visit volume.
	PaperEquivalentSeconds float64
	// RowsScanned / BytesMerged are real work counters from the execution
	// engine, averaged over the repetitions: how much the read path actually
	// touched to serve the point.
	RowsScanned int64
	BytesMerged int64
}

// RunFig2 executes the sweep. Each (nodes) series shares one dataset; the
// queries run one at a time, as in the paper's first experiment.
func RunFig2(cfg Fig2Config) ([]Fig2Point, error) {
	if cfg.Repetitions < 1 {
		return nil, fmt.Errorf("bench: repetitions must be >= 1")
	}
	var out []Fig2Point
	for _, nodes := range cfg.Nodes {
		ds, err := BuildDataset(cfg.Dataset, nodes)
		if err != nil {
			return nil, err
		}
		from, to := ds.Window()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, friends := range cfg.FriendCounts {
			if friends >= cfg.Dataset.Users {
				return nil, fmt.Errorf("bench: friend count %d exceeds user population %d", friends, cfg.Dataset.Users)
			}
			var sum float64
			var rows, bytes int64
			for rep := 0; rep < cfg.Repetitions; rep++ {
				spec := query.Spec{
					FriendIDs:  ds.FriendSample(rng, friends),
					FromMillis: from,
					ToMillis:   to,
					OrderBy:    query.ByInterest,
					Limit:      10,
				}
				res, err := ds.Engine.Run(context.Background(), spec)
				if err != nil {
					return nil, err
				}
				sum += res.LatencySeconds
				rows += res.Exec.RowsScanned
				bytes += res.Exec.BytesMerged
			}
			reps := int64(cfg.Repetitions)
			avg := sum / float64(cfg.Repetitions)
			out = append(out, Fig2Point{
				Nodes:                  nodes,
				Friends:                friends,
				LatencySeconds:         avg,
				PaperEquivalentSeconds: ds.PaperEquivalent(avg),
				RowsScanned:            rows / reps,
				BytesMerged:            bytes / reps,
			})
		}
	}
	return out, nil
}

// Fig3Config parameterizes Figure 3: average latency of concurrent queries.
type Fig3Config struct {
	Dataset DatasetConfig
	// Concurrency is the x-axis (paper: 30–50 step 5).
	Concurrency []int
	Nodes       []int
	// FriendsPerQuery is fixed at 6 000 in the paper.
	FriendsPerQuery int
	Seed            int64
}

// DefaultFig3 mirrors the paper's sweep.
func DefaultFig3() Fig3Config {
	return Fig3Config{
		Dataset:         DefaultDataset(),
		Concurrency:     []int{30, 35, 40, 45, 50},
		Nodes:           []int{4, 8, 16},
		FriendsPerQuery: 6000,
		Seed:            43,
	}
}

// Fig3Point is one measured point of Figure 3.
type Fig3Point struct {
	Nodes                  int
	Concurrent             int
	AvgLatencySeconds      float64
	PaperEquivalentSeconds float64
	// RowsScanned / BytesMerged total the real read-path work across the
	// whole concurrent batch.
	RowsScanned int64
	BytesMerged int64
}

// RunFig3 executes the concurrency sweep.
func RunFig3(cfg Fig3Config) ([]Fig3Point, error) {
	if cfg.FriendsPerQuery < 1 {
		return nil, fmt.Errorf("bench: friends per query must be positive")
	}
	var out []Fig3Point
	for _, nodes := range cfg.Nodes {
		ds, err := BuildDataset(cfg.Dataset, nodes)
		if err != nil {
			return nil, err
		}
		from, to := ds.Window()
		rng := rand.New(rand.NewSource(cfg.Seed))
		for _, m := range cfg.Concurrency {
			specs := make([]query.Spec, m)
			for i := range specs {
				specs[i] = query.Spec{
					FriendIDs:  ds.FriendSample(rng, cfg.FriendsPerQuery),
					FromMillis: from,
					ToMillis:   to,
					OrderBy:    query.ByInterest,
					Limit:      10,
				}
			}
			results, err := ds.Engine.RunConcurrent(context.Background(), specs)
			if err != nil {
				return nil, err
			}
			var sum float64
			var rows, bytes int64
			for _, r := range results {
				sum += r.LatencySeconds
				rows += r.Exec.RowsScanned
				bytes += r.Exec.BytesMerged
			}
			avg := sum / float64(len(results))
			out = append(out, Fig3Point{
				Nodes:                  nodes,
				Concurrent:             m,
				AvgLatencySeconds:      avg,
				PaperEquivalentSeconds: ds.PaperEquivalent(avg),
				RowsScanned:            rows,
				BytesMerged:            bytes,
			})
		}
	}
	return out, nil
}

// SchemaAblationConfig parameterizes the replicated-vs-normalized Visits
// schema comparison (the design decision of §2.1).
type SchemaAblationConfig struct {
	Dataset DatasetConfig
	Nodes   int
	Friends int
	Seed    int64
}

// DefaultSchemaAblation uses a smaller population (the comparison needs
// two full datasets in memory).
func DefaultSchemaAblation() SchemaAblationConfig {
	ds := DefaultDataset()
	ds.Users = 4000
	return SchemaAblationConfig{Dataset: ds, Nodes: 8, Friends: 2000, Seed: 44}
}

// SchemaAblationRow is one schema's measurement.
type SchemaAblationRow struct {
	Schema          string
	LatencySeconds  float64
	CandidatesMoved int
	ResultPOIs      int
}

// RunSchemaAblation measures both schemas on the same query (a bounded
// bounding box plus keyword, where the replicated schema's region-side
// filtering pays off).
func RunSchemaAblation(cfg SchemaAblationConfig) ([]SchemaAblationRow, error) {
	var out []SchemaAblationRow
	rngSeed := rand.New(rand.NewSource(cfg.Seed))
	friends := workloadFriends(rngSeed, cfg.Dataset.Users, cfg.Friends)
	for _, schema := range []repos.VisitSchema{repos.SchemaReplicated, repos.SchemaNormalized} {
		dcfg := cfg.Dataset
		dcfg.Schema = schema
		ds, err := BuildDataset(dcfg, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		from, to := ds.Window()
		// Athens-area restaurants: a selective query.
		box := athensBox()
		res, err := ds.Engine.Run(context.Background(), query.Spec{
			BBox:       &box,
			Keyword:    "restaurant",
			FriendIDs:  friends,
			FromMillis: from,
			ToMillis:   to,
			OrderBy:    query.ByInterest,
			Limit:      10,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, SchemaAblationRow{
			Schema:          schema.String(),
			LatencySeconds:  res.LatencySeconds,
			CandidatesMoved: res.Work.CandidatePOIs,
			ResultPOIs:      len(res.POIs),
		})
	}
	return out, nil
}

// RegionAblationConfig parameterizes the regions-vs-parallelism experiment
// ("increasing the regions number ... achieves higher degree of
// parallelism within a single query").
type RegionAblationConfig struct {
	Dataset      DatasetConfig
	Nodes        int
	Friends      int
	RegionCounts []int
	Seed         int64
}

// DefaultRegionAblation sweeps region counts on a fixed 4-node cluster.
func DefaultRegionAblation() RegionAblationConfig {
	ds := DefaultDataset()
	ds.Users = 4000
	return RegionAblationConfig{
		Dataset:      ds,
		Nodes:        4,
		Friends:      2000,
		RegionCounts: []int{4, 8, 16, 32, 64},
		Seed:         45,
	}
}

// RegionAblationRow is one region count's measurement.
type RegionAblationRow struct {
	Regions        int
	LatencySeconds float64
}

// RunRegionAblation measures single-query latency across region counts.
func RunRegionAblation(cfg RegionAblationConfig) ([]RegionAblationRow, error) {
	var out []RegionAblationRow
	rng := rand.New(rand.NewSource(cfg.Seed))
	friends := workloadFriends(rng, cfg.Dataset.Users, cfg.Friends)
	for _, regions := range cfg.RegionCounts {
		dcfg := cfg.Dataset
		dcfg.Regions = regions
		ds, err := BuildDataset(dcfg, cfg.Nodes)
		if err != nil {
			return nil, err
		}
		from, to := ds.Window()
		res, err := ds.Engine.Run(context.Background(), query.Spec{
			FriendIDs:  friends,
			FromMillis: from,
			ToMillis:   to,
			OrderBy:    query.ByInterest,
			Limit:      10,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, RegionAblationRow{Regions: regions, LatencySeconds: res.LatencySeconds})
	}
	return out, nil
}

// RenderTable formats rows of (label → value) pairs as a fixed-width text
// table, one row per entry, ordered as given.
func RenderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return sb.String()
}

// SortFig2 orders points by (nodes, friends) for stable rendering.
func SortFig2(points []Fig2Point) {
	sort.Slice(points, func(i, j int) bool {
		if points[i].Nodes != points[j].Nodes {
			return points[i].Nodes < points[j].Nodes
		}
		return points[i].Friends < points[j].Friends
	})
}

// SortFig3 orders points by (nodes, concurrency).
func SortFig3(points []Fig3Point) {
	sort.Slice(points, func(i, j int) bool {
		if points[i].Nodes != points[j].Nodes {
			return points[i].Nodes < points[j].Nodes
		}
		return points[i].Concurrent < points[j].Concurrent
	})
}

// WebServerAblationConfig parameterizes the web-farm sizing experiment
// behind §3.1's closing claim: "two 4-core web servers ... are more than
// enough to avoid such bottlenecks".
type WebServerAblationConfig struct {
	Dataset         DatasetConfig
	Nodes           int
	Concurrent      int
	FriendsPerQuery int
	WebServers      []int
	Seed            int64
}

// DefaultWebServerAblation stresses the farm with 40 concurrent queries.
func DefaultWebServerAblation() WebServerAblationConfig {
	ds := DefaultDataset()
	ds.Users = 4000
	return WebServerAblationConfig{
		Dataset:         ds,
		Nodes:           8,
		Concurrent:      40,
		FriendsPerQuery: 2000,
		WebServers:      []int{1, 2, 4},
		Seed:            49,
	}
}

// WebServerAblationRow is one farm size's measurement.
type WebServerAblationRow struct {
	WebServers        int
	AvgLatencySeconds float64
}

// RunWebServerAblation measures concurrent-query latency across web-farm
// sizes; the claim holds if going beyond two servers yields no meaningful
// improvement.
func RunWebServerAblation(cfg WebServerAblationConfig) ([]WebServerAblationRow, error) {
	var out []WebServerAblationRow
	for _, web := range cfg.WebServers {
		ccfg := cluster.DefaultConfig(cfg.Nodes)
		ccfg.WebServers = web
		clus, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		ds, err := buildDatasetOnCluster(cfg.Dataset, clus)
		if err != nil {
			return nil, err
		}
		from, to := ds.Window()
		rng := rand.New(rand.NewSource(cfg.Seed))
		specs := make([]query.Spec, cfg.Concurrent)
		for i := range specs {
			specs[i] = query.Spec{
				FriendIDs:  ds.FriendSample(rng, cfg.FriendsPerQuery),
				FromMillis: from,
				ToMillis:   to,
				OrderBy:    query.ByInterest,
				Limit:      10,
			}
		}
		results, err := ds.Engine.RunConcurrent(context.Background(), specs)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, r := range results {
			sum += r.LatencySeconds
		}
		out = append(out, WebServerAblationRow{
			WebServers:        web,
			AvgLatencySeconds: sum / float64(len(results)),
		})
	}
	return out, nil
}

// TopKAblationConfig parameterizes the exact-vs-approximate merge
// experiment: per-region top-K truncation against the paper's exact merge.
type TopKAblationConfig struct {
	Dataset DatasetConfig
	Nodes   int
	Friends int
	// Ks are the per-region truncations to sweep (0 = exact).
	Ks    []int
	Limit int
	Seed  int64
}

// DefaultTopKAblation sweeps K ∈ {exact, 100, 30, 10}.
func DefaultTopKAblation() TopKAblationConfig {
	ds := DefaultDataset()
	ds.Users = 4000
	return TopKAblationConfig{
		Dataset: ds,
		Nodes:   8,
		Friends: 2000,
		Ks:      []int{0, 2000, 1000, 300, 100, 30},
		Limit:   10,
		Seed:    50,
	}
}

// TopKAblationRow is one truncation level's measurement.
type TopKAblationRow struct {
	RegionTopK      int // 0 = exact
	LatencySeconds  float64
	CandidatesMoved int
	// Recall is |approx∩exact| / |exact| over the final top-Limit lists
	// (1.0 for the exact run by definition).
	Recall float64
}

// RunTopKAblation measures latency, shipped candidates and recall across
// truncation levels on the same hotness query.
func RunTopKAblation(cfg TopKAblationConfig) ([]TopKAblationRow, error) {
	if len(cfg.Ks) == 0 || cfg.Limit < 1 {
		return nil, fmt.Errorf("bench: invalid topk config")
	}
	ds, err := BuildDataset(cfg.Dataset, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	from, to := ds.Window()
	rng := rand.New(rand.NewSource(cfg.Seed))
	friends := workloadFriends(rng, cfg.Dataset.Users, cfg.Friends)
	base := query.Spec{
		FriendIDs:  friends,
		FromMillis: from,
		ToMillis:   to,
		OrderBy:    query.ByHotness,
		Limit:      cfg.Limit,
	}
	exact, err := ds.Engine.Run(context.Background(), base)
	if err != nil {
		return nil, err
	}
	exactIDs := map[int64]bool{}
	for _, s := range exact.POIs {
		exactIDs[s.POI.ID] = true
	}
	var out []TopKAblationRow
	for _, k := range cfg.Ks {
		spec := base
		spec.RegionTopK = k
		res, err := ds.Engine.Run(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		hits := 0
		for _, s := range res.POIs {
			if exactIDs[s.POI.ID] {
				hits++
			}
		}
		recall := 1.0
		if len(exact.POIs) > 0 {
			recall = float64(hits) / float64(len(exact.POIs))
		}
		out = append(out, TopKAblationRow{
			RegionTopK:      k,
			LatencySeconds:  res.LatencySeconds,
			CandidatesMoved: res.Work.CandidatePOIs,
			Recall:          recall,
		})
	}
	return out, nil
}
