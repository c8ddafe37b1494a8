// Command modissense-bench regenerates the paper's evaluation: Figure 2
// (query latency vs friends), Figure 3 (concurrent-query latency), Figure 4
// (classifier accuracy vs training size), the 94%-accuracy claim, the
// schema and region-count ablations, and the MR-DBSCAN experiment.
//
// Usage:
//
//	modissense-bench -exp all            # everything (default)
//	modissense-bench -exp fig2           # one experiment
//	modissense-bench -exp fig3 -quick    # reduced sweep for smoke runs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"modissense/internal/bench"
	"modissense/internal/exec"
)

// experiments is the one table of what -exp accepts, in the order "all"
// runs them.
var experiments = []struct {
	name string
	run  func(quick bool) error
}{
	{"fig2", runFig2},
	{"fig3", runFig3},
	{"fig4", runFig4},
	{"accuracy", runAccuracy},
	{"ablation-schema", runSchemaAblation},
	{"ablation-regions", runRegionAblation},
	{"dbscan", runDBSCAN},
	{"ext-cnb", runCNB},
	{"ext-webservers", runWebServers},
	{"ext-topk", runTopK},
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(names, " | ")+" | all")
	quick := flag.Bool("quick", false, "run reduced sweeps (smaller dataset, fewer points)")
	scatterWorkers := flag.Int("scatter-workers", 0, "scatter-gather worker-pool size for real region execution (0 = GOMAXPROCS)")
	flag.Parse()

	exec.SetDefaultWorkers(*scatterWorkers)

	ran := false
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		ran = true
		start := time.Now()
		err := e.run(*quick)
		fmt.Printf("[%s finished in %.1fs]\n\n", e.name, time.Since(start).Seconds())
		if err != nil {
			log.Fatalf("%s: %v", e.name, err)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

func f(v float64) string  { return strconv.FormatFloat(v, 'f', 3, 64) }
func ms(v float64) string { return strconv.FormatFloat(v*1000, 'f', 0, 64) }

func runFig2(quick bool) error {
	cfg := bench.DefaultFig2()
	if quick {
		cfg.Dataset.Users = 2000
		cfg.FriendCounts = []int{500, 1000, 1500}
		cfg.Repetitions = 1
	}
	fmt.Println("== Figure 2: personalized query latency vs number of SN friends ==")
	fmt.Printf("dataset: %d POIs, %d users, visits/user ≈ N(%d, %d) (paper volume ÷ %d)\n\n",
		cfg.Dataset.POIs, cfg.Dataset.Users, 170/cfg.Dataset.VisitScale, 10/cfg.Dataset.VisitScale,
		cfg.Dataset.VisitScale)
	points, err := bench.RunFig2(cfg)
	if err != nil {
		return err
	}
	bench.SortFig2(points)
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			strconv.Itoa(p.Nodes), strconv.Itoa(p.Friends),
			ms(p.LatencySeconds), ms(p.PaperEquivalentSeconds),
			strconv.FormatInt(p.RowsScanned, 10), strconv.FormatInt(p.BytesMerged, 10),
		})
	}
	fmt.Println(bench.RenderTable(
		[]string{"nodes", "friends", "latency(ms)", "paper-equivalent(ms)", "rows-scanned", "bytes-merged"}, rows))
	return nil
}

func runFig3(quick bool) error {
	cfg := bench.DefaultFig3()
	if quick {
		cfg.Dataset.Users = 2000
		cfg.Concurrency = []int{10, 20}
		cfg.FriendsPerQuery = 1000
	}
	fmt.Println("== Figure 3: average latency of concurrent queries (6000 friends each) ==")
	points, err := bench.RunFig3(cfg)
	if err != nil {
		return err
	}
	bench.SortFig3(points)
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			strconv.Itoa(p.Nodes), strconv.Itoa(p.Concurrent),
			f(p.AvgLatencySeconds), f(p.PaperEquivalentSeconds),
			strconv.FormatInt(p.RowsScanned, 10), strconv.FormatInt(p.BytesMerged, 10),
		})
	}
	fmt.Println(bench.RenderTable(
		[]string{"nodes", "concurrent", "avg-latency(s)", "paper-equivalent(s)", "rows-scanned", "bytes-merged"}, rows))
	return nil
}

func runFig4(quick bool) error {
	cfg := bench.DefaultFig4()
	if quick {
		cfg.TrainSizes = []int{500, 1000, 4000}
		cfg.TestDocs = 800
	}
	fmt.Println("== Figure 4: classification accuracy vs training-set size ==")
	fmt.Printf("corpus scale: 1/%d of the paper's crawl (threshold 500k ↔ %d docs)\n\n",
		bench.Fig4Scale, cfg.Corpus.CleanDocs)
	points, err := bench.RunFig4(cfg)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			strconv.Itoa(p.TrainDocs),
			fmt.Sprintf("%.1fM", float64(p.PaperEquivalentDocs)/1e6),
			p.Pipeline,
			fmt.Sprintf("%.1f%%", p.Accuracy*100),
		})
	}
	fmt.Println(bench.RenderTable(
		[]string{"train-docs", "paper-equivalent", "pipeline", "accuracy"}, rows))
	return nil
}

func runAccuracy(bool) error {
	fmt.Println("== In-text claim: classifier accuracy towards unseen data ==")
	acc, err := bench.AccuracyClaim(46)
	if err != nil {
		return err
	}
	fmt.Printf("optimized pipeline at the quality threshold: %.1f%% (paper: 94%%)\n\n", acc*100)
	return nil
}

func runSchemaAblation(quick bool) error {
	cfg := bench.DefaultSchemaAblation()
	if quick {
		cfg.Dataset.Users = 1500
		cfg.Friends = 500
	}
	fmt.Println("== Ablation: replicated visit schema vs join-at-query-time (§2.1) ==")
	rows, err := bench.RunSchemaAblation(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Schema, ms(r.LatencySeconds), strconv.Itoa(r.CandidatesMoved), strconv.Itoa(r.ResultPOIs),
		})
	}
	fmt.Println(bench.RenderTable(
		[]string{"schema", "latency(ms)", "candidates-shipped", "results"}, table))
	return nil
}

func runRegionAblation(quick bool) error {
	cfg := bench.DefaultRegionAblation()
	if quick {
		cfg.Dataset.Users = 1500
		cfg.Friends = 500
		cfg.RegionCounts = []int{4, 16, 64}
	}
	fmt.Println("== Ablation: region count vs intra-query parallelism (§2.2) ==")
	rows, err := bench.RunRegionAblation(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{strconv.Itoa(r.Regions), ms(r.LatencySeconds)})
	}
	fmt.Println(bench.RenderTable([]string{"regions", "latency(ms)"}, table))
	return nil
}

func runDBSCAN(quick bool) error {
	cfg := bench.DefaultDBSCAN()
	if quick {
		cfg.Gatherings = 6
		cfg.PointsPerGathering = 100
		cfg.NoisePoints = 500
	}
	fmt.Println("== Event detection: MR-DBSCAN correctness and parallel speedup ==")
	rows, err := bench.RunDBSCAN(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			strconv.Itoa(r.Nodes),
			fmt.Sprintf("%d/%d", r.ClustersFound, r.ClustersExpected),
			strconv.FormatBool(r.AgreesWithSeq),
			f(r.SimulatedSeconds),
		})
	}
	fmt.Println(bench.RenderTable(
		[]string{"nodes", "clusters", "matches-sequential", "makespan(s)"}, table))
	return nil
}

func runCNB(quick bool) error {
	sizes := []int{500, 1000, 4000, 12000}
	testDocs := 2000
	if quick {
		sizes = []int{500, 2000}
		testDocs = 800
	}
	fmt.Println("== Extension: multinomial vs Complement Naive Bayes (both shipped by Mahout) ==")
	rows, err := bench.RunClassifierComparison(sizes, testDocs, 48)
	if err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			strconv.Itoa(r.TrainDocs), r.Algorithm, fmt.Sprintf("%.1f%%", r.Accuracy*100),
		})
	}
	fmt.Println(bench.RenderTable([]string{"train-docs", "algorithm", "accuracy"}, table))
	return nil
}

func runWebServers(quick bool) error {
	cfg := bench.DefaultWebServerAblation()
	if quick {
		cfg.Dataset.Users = 1500
		cfg.Concurrent = 12
		cfg.FriendsPerQuery = 500
	}
	fmt.Println("== Extension: web-server farm sizing (§3.1's 'two servers suffice' claim) ==")
	rows, err := bench.RunWebServerAblation(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{strconv.Itoa(r.WebServers), f(r.AvgLatencySeconds)})
	}
	fmt.Println(bench.RenderTable([]string{"web-servers", "avg-latency(s)"}, table))
	return nil
}

func runTopK(quick bool) error {
	cfg := bench.DefaultTopKAblation()
	if quick {
		cfg.Dataset.Users = 1500
		cfg.Friends = 500
	}
	fmt.Println("== Extension: exact merge vs per-region top-K truncation ==")
	rows, err := bench.RunTopKAblation(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		label := strconv.Itoa(r.RegionTopK)
		if r.RegionTopK == 0 {
			label = "exact"
		}
		table = append(table, []string{
			label, ms(r.LatencySeconds), strconv.Itoa(r.CandidatesMoved), fmt.Sprintf("%.2f", r.Recall),
		})
	}
	fmt.Println(bench.RenderTable([]string{"region-topk", "latency(ms)", "candidates-shipped", "recall@10"}, table))
	return nil
}
