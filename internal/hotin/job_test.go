// Package hotin holds the paper's HotIn Update module — a periodic MapReduce
// job that aggregates hotness (crowd concentration) and interest (average
// friend opinion) over all visits inside a configurable time frame T and
// writes the metrics into the POI repository — as a test oracle. Production
// maintains the same aggregate incrementally (internal/matview, read by
// core.Platform.UpdateHotIn); the package has test files only, and
// TestUpdateHotInMatchesMRJob holds the two to the same numbers, as
// sequential DBSCAN does for MR-DBSCAN.
package hotin

import (
	"fmt"
	"math"

	"modissense/internal/cluster"
	"modissense/internal/mapreduce"
	"modissense/internal/model"
	"modissense/internal/repos"
)

// Config parameterizes one update run.
type Config struct {
	// FromMillis/ToMillis delimit the aggregation window T (inclusive).
	FromMillis int64
	ToMillis   int64
	// MapTasks is the number of map splits (defaults to 16).
	MapTasks int
	// Reducers is the number of reduce partitions (defaults to 8).
	Reducers int
	// Cluster, when non-nil, models the job's schedule and reports its
	// simulated duration.
	Cluster *cluster.Cluster
	// DecayHalfLifeMillis, when positive, weights each visit by
	// 2^-(age/halfLife) where age = ToMillis − visit time, so hotness
	// reflects *recent* crowd concentration — the "hotness over time"
	// reading of §1. Zero keeps the paper's plain count aggregation.
	DecayHalfLifeMillis int64
}

// Stats summarizes one update run.
type Stats struct {
	VisitsAggregated int
	POIsUpdated      int
	// MaxVisits is the window's hottest POI visit count (the hotness
	// normalizer).
	MaxVisits int
	// SimulatedSeconds is the modeled job duration (0 without a cluster).
	SimulatedSeconds float64
}

// poiAggregate is the reducer's per-POI output. Weight equals Visits when
// decay is disabled; under decay it is the sum of the visits' decay
// factors, and WeightedGradeSum weights each grade the same way.
type poiAggregate struct {
	POIID            int64
	Visits           int
	Weight           float64
	WeightedGradeSum float64
}

// Run scans the Visits repository, aggregates per POI with a MapReduce
// job, normalizes and writes hotness/interest into the POI repository.
//
// Hotness is the POI's visit count divided by the window maximum (∈ [0,1]);
// interest is the average sentiment grade rescaled from [1,5] to [0,1].
func Run(visits *repos.VisitsRepo, pois *repos.POIRepo, cfg Config) (Stats, error) {
	if visits == nil || pois == nil {
		return Stats{}, fmt.Errorf("hotin: repositories must be non-nil")
	}
	if cfg.ToMillis < cfg.FromMillis {
		return Stats{}, fmt.Errorf("hotin: window inverted")
	}
	if cfg.MapTasks == 0 {
		cfg.MapTasks = 16
	}
	if cfg.Reducers == 0 {
		cfg.Reducers = 8
	}
	if cfg.MapTasks < 1 || cfg.Reducers < 1 {
		return Stats{}, fmt.Errorf("hotin: map/reduce task counts must be positive")
	}

	// Input: every visit in the window (the paper configures the job "with
	// a scanner over all visits in T").
	var records []interface{}
	err := visits.ScanAll(func(v model.Visit) bool {
		if v.Time >= cfg.FromMillis && v.Time <= cfg.ToMillis {
			records = append(records, v)
		}
		return true
	})
	if err != nil {
		return Stats{}, err
	}

	job := &mapreduce.Job{
		Name:  "hotin-update",
		Input: mapreduce.SplitRecords(records, cfg.MapTasks),
		Mapper: mapreduce.MapperFunc(func(record interface{}, emit func(string, interface{})) error {
			v, ok := record.(model.Visit)
			if !ok {
				return fmt.Errorf("hotin: unexpected record %T", record)
			}
			w := 1.0
			if cfg.DecayHalfLifeMillis > 0 {
				age := float64(cfg.ToMillis - v.Time)
				w = math.Exp2(-age / float64(cfg.DecayHalfLifeMillis))
			}
			emit(fmt.Sprintf("p%012d", v.POI.ID), poiAggregate{
				POIID: v.POI.ID, Visits: 1, Weight: w, WeightedGradeSum: v.Grade * w,
			})
			return nil
		}),
		Combiner:    sumReducer(),
		Reducer:     sumReducer(),
		NumReducers: cfg.Reducers,
	}
	var res *mapreduce.Result
	if cfg.Cluster != nil {
		res, err = job.RunOnCluster(cfg.Cluster)
	} else {
		res, err = job.Run()
	}
	if err != nil {
		return Stats{}, err
	}

	stats := Stats{VisitsAggregated: len(records), SimulatedSeconds: res.SimulatedSeconds}
	aggs := make([]poiAggregate, 0, len(res.Output))
	maxWeight := 0.0
	for _, pair := range res.Output {
		a := pair.Value.(poiAggregate)
		aggs = append(aggs, a)
		if a.Visits > stats.MaxVisits {
			stats.MaxVisits = a.Visits
		}
		if a.Weight > maxWeight {
			maxWeight = a.Weight
		}
	}
	for _, a := range aggs {
		hotness := 0.0
		if maxWeight > 0 {
			hotness = a.Weight / maxWeight
		}
		interest := 0.0
		if a.Weight > 0 {
			interest = (a.WeightedGradeSum/a.Weight - 1) / 4 // [1,5] → [0,1]
		}
		if err := pois.UpdateHotIn(a.POIID, hotness, interest); err != nil {
			// POIs that vanished from the catalog (or unresolved ids under
			// the normalized schema) are skipped, not fatal.
			continue
		}
		stats.POIsUpdated++
	}
	return stats, nil
}

// sumReducer folds poiAggregate values; it is both the combiner and the
// reducer of the job.
func sumReducer() mapreduce.Reducer {
	return mapreduce.ReducerFunc(func(key string, values []interface{}, emit func(string, interface{})) error {
		var total poiAggregate
		for _, v := range values {
			a, ok := v.(poiAggregate)
			if !ok {
				return fmt.Errorf("hotin: unexpected value %T", v)
			}
			total.POIID = a.POIID
			total.Visits += a.Visits
			total.Weight += a.Weight
			total.WeightedGradeSum += a.WeightedGradeSum
		}
		emit(key, total)
		return nil
	})
}
