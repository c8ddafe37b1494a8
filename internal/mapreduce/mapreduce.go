// Package mapreduce implements the batch-processing substrate of the
// platform: a Hadoop-style MapReduce engine with mappers, combiners,
// partitioners and reducers, plus an execution mode on the simulated
// cluster that models task scheduling and parallel speedup.
//
// The HotIn-update job (hotness/interest aggregation over the Visits
// repository) and MR-DBSCAN (event detection over GPS traces) both run on
// this engine, mirroring the Hadoop deployment of the original system.
package mapreduce

import (
	"fmt"
	"hash/fnv"
	"sort"

	"modissense/internal/cluster"
)

// Pair is one key/value record flowing between stages.
type Pair struct {
	Key   string
	Value interface{}
}

// Mapper transforms one input record into zero or more pairs.
type Mapper interface {
	Map(record interface{}, emit func(key string, value interface{})) error
}

// Reducer folds all values of one key into zero or more output pairs. The
// same interface serves as an optional combiner running after each map
// task on its local output.
type Reducer interface {
	Reduce(key string, values []interface{}, emit func(key string, value interface{})) error
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(record interface{}, emit func(key string, value interface{})) error

// Map implements Mapper.
func (f MapperFunc) Map(record interface{}, emit func(key string, value interface{})) error {
	return f(record, emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key string, values []interface{}, emit func(key string, value interface{})) error

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key string, values []interface{}, emit func(key string, value interface{})) error {
	return f(key, values, emit)
}

// Partitioner assigns a key to one of n reduce partitions.
type Partitioner func(key string, n int) int

// HashPartitioner is the default FNV-1a partitioner.
func HashPartitioner(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Counters collects job statistics.
type Counters struct {
	MapInputRecords   int
	MapOutputRecords  int
	CombineOutput     int
	ReduceInputGroups int
	ReduceOutput      int
	MapTasks          int
	ReduceTasks       int
}

// Job describes one MapReduce execution.
type Job struct {
	Name string
	// Input is pre-split into map tasks: one slice of records per task.
	Input [][]interface{}
	// Mapper is required.
	Mapper Mapper
	// Combiner optionally pre-aggregates map output per task.
	Combiner Reducer
	// Reducer is required.
	Reducer Reducer
	// NumReducers defaults to 1.
	NumReducers int
	// Partitioner defaults to HashPartitioner.
	Partitioner Partitioner
}

// Result holds job output and statistics.
type Result struct {
	// Output is every reducer emission, sorted by key then insertion order.
	Output []Pair
	// Counters holds job statistics.
	Counters Counters
	// SimulatedSeconds is the modeled wall-clock on the simulated cluster
	// (zero when the job ran without a cluster).
	SimulatedSeconds float64
}

// SplitRecords partitions records into n near-equal contiguous splits; a
// convenience for building Job.Input.
func SplitRecords(records []interface{}, n int) [][]interface{} {
	if n < 1 {
		n = 1
	}
	if n > len(records) && len(records) > 0 {
		n = len(records)
	}
	if len(records) == 0 {
		return nil
	}
	out := make([][]interface{}, 0, n)
	per := (len(records) + n - 1) / n
	for s := 0; s < len(records); s += per {
		e := s + per
		if e > len(records) {
			e = len(records)
		}
		out = append(out, records[s:e])
	}
	return out
}

func (j *Job) validate() error {
	if j.Mapper == nil {
		return fmt.Errorf("mapreduce: job %q has no mapper", j.Name)
	}
	if j.Reducer == nil {
		return fmt.Errorf("mapreduce: job %q has no reducer", j.Name)
	}
	if j.NumReducers < 0 {
		return fmt.Errorf("mapreduce: job %q has negative reducer count", j.Name)
	}
	return nil
}

// mapTaskOutput is one map task's partitioned output.
type mapTaskOutput struct {
	// partitions[p] holds pairs destined for reducer p.
	partitions [][]Pair
	records    int // input records processed (for the cost model)
	emitted    int
}

// runMapTask executes the mapper (and combiner) over one split.
func (j *Job) runMapTask(split []interface{}, numReducers int, part Partitioner) (*mapTaskOutput, error) {
	var local []Pair
	emit := func(k string, v interface{}) { local = append(local, Pair{k, v}) }
	for _, rec := range split {
		if err := j.Mapper.Map(rec, emit); err != nil {
			return nil, fmt.Errorf("mapreduce: job %q map: %w", j.Name, err)
		}
	}
	out := &mapTaskOutput{records: len(split), emitted: len(local)}
	if j.Combiner != nil {
		combined, err := combine(j.Combiner, local)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: job %q combine: %w", j.Name, err)
		}
		local = combined
	}
	out.partitions = make([][]Pair, numReducers)
	for _, p := range local {
		idx := part(p.Key, numReducers)
		if idx < 0 || idx >= numReducers {
			return nil, fmt.Errorf("mapreduce: partitioner returned %d for %d reducers", idx, numReducers)
		}
		out.partitions[idx] = append(out.partitions[idx], p)
	}
	return out, nil
}

// combine groups pairs by key and runs the combiner on each group.
func combine(c Reducer, pairs []Pair) ([]Pair, error) {
	grouped := groupByKey(pairs)
	var out []Pair
	emit := func(k string, v interface{}) { out = append(out, Pair{k, v}) }
	for _, g := range grouped {
		if err := c.Reduce(g.key, g.values, emit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type keyGroup struct {
	key    string
	values []interface{}
}

// groupByKey sorts pairs by key (stable) and groups adjacent equal keys.
func groupByKey(pairs []Pair) []keyGroup {
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	var out []keyGroup
	for i := 0; i < len(pairs); {
		j := i
		g := keyGroup{key: pairs[i].Key}
		for j < len(pairs) && pairs[j].Key == pairs[i].Key {
			g.values = append(g.values, pairs[j].Value)
			j++
		}
		out = append(out, g)
		i = j
	}
	return out
}

// runReduceTask executes the reducer over one partition's groups.
func (j *Job) runReduceTask(pairs []Pair) ([]Pair, int, error) {
	grouped := groupByKey(pairs)
	var out []Pair
	emit := func(k string, v interface{}) { out = append(out, Pair{k, v}) }
	for _, g := range grouped {
		if err := j.Reducer.Reduce(g.key, g.values, emit); err != nil {
			return nil, 0, fmt.Errorf("mapreduce: job %q reduce: %w", j.Name, err)
		}
	}
	return out, len(grouped), nil
}

// Run executes the job locally (no cluster timing).
func (j *Job) Run() (*Result, error) {
	return j.run(nil)
}

// RunOnCluster executes the job and models its schedule on the simulated
// cluster: map tasks are placed round-robin on nodes, reduce tasks start
// after the slowest map task (the shuffle barrier), and the returned
// SimulatedSeconds is the job makespan under the cluster's cost model.
func (j *Job) RunOnCluster(c *cluster.Cluster) (*Result, error) {
	if c == nil {
		return nil, fmt.Errorf("mapreduce: nil cluster")
	}
	return j.run(c)
}

func (j *Job) run(c *cluster.Cluster) (*Result, error) {
	if err := j.validate(); err != nil {
		return nil, err
	}
	numReducers := j.NumReducers
	if numReducers == 0 {
		numReducers = 1
	}
	part := j.Partitioner
	if part == nil {
		part = HashPartitioner
	}

	res := &Result{}
	res.Counters.MapTasks = len(j.Input)
	res.Counters.ReduceTasks = numReducers

	// Map phase (real execution).
	taskOutputs := make([]*mapTaskOutput, len(j.Input))
	for i, split := range j.Input {
		out, err := j.runMapTask(split, numReducers, part)
		if err != nil {
			return nil, err
		}
		taskOutputs[i] = out
		res.Counters.MapInputRecords += out.records
		res.Counters.MapOutputRecords += out.emitted
		for _, p := range out.partitions {
			res.Counters.CombineOutput += len(p)
		}
	}

	// Shuffle.
	partitions := make([][]Pair, numReducers)
	for _, out := range taskOutputs {
		for p := range out.partitions {
			partitions[p] = append(partitions[p], out.partitions[p]...)
		}
	}

	// Reduce phase (real execution).
	reduceOutputs := make([][]Pair, numReducers)
	for p := range partitions {
		out, groups, err := j.runReduceTask(partitions[p])
		if err != nil {
			return nil, err
		}
		reduceOutputs[p] = out
		res.Counters.ReduceInputGroups += groups
		res.Counters.ReduceOutput += len(out)
	}
	for _, out := range reduceOutputs {
		res.Output = append(res.Output, out...)
	}
	sort.SliceStable(res.Output, func(a, b int) bool { return res.Output[a].Key < res.Output[b].Key })

	// Timing model.
	if c != nil {
		mapRecords := make([]int, len(taskOutputs))
		for i, m := range taskOutputs {
			mapRecords[i] = m.records
		}
		reduceRecords := make([]int, len(partitions))
		for p, pairs := range partitions {
			reduceRecords[p] = len(pairs)
		}
		var err error
		if res.SimulatedSeconds, err = SimulateSchedule(c, mapRecords, reduceRecords); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// SimulateSchedule models a job's task graph on the simulated cluster, all
// tasks on one session, and returns the makespan: map task i, over
// mapRecords[i] records, runs on node i from time zero; reduce task p, over
// reduceRecords[p] records, runs on node p once the slowest map task has
// finished (the shuffle barrier).
func SimulateSchedule(c *cluster.Cluster, mapRecords, reduceRecords []int) (float64, error) {
	cost := c.Config().Cost
	return c.Simulate(func(s *cluster.Session) {
		reduce := func(mapsDone float64) {
			for p, records := range reduceRecords {
				s.Submit(s.Node(p), mapsDone, cost.ReduceTaskServiceTime(records), nil)
			}
		}
		remaining := len(mapRecords)
		if remaining == 0 {
			reduce(0)
		}
		for i, records := range mapRecords {
			s.Submit(s.Node(i), 0, cost.MapTaskServiceTime(records), func(at float64) {
				// Completions fire in time order: the last is the slowest.
				if remaining--; remaining == 0 {
					reduce(at)
				}
			})
		}
	})
}
