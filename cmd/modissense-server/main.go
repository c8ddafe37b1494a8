// Command modissense-server boots a MoDisSENSE platform instance and
// serves its REST API.
//
// Usage:
//
//	modissense-server -addr :8080 -nodes 4 -pois 800 -population 2000
//
// Then, for example:
//
//	curl -s -X POST localhost:8080/api/v1/signin \
//	     -d '{"network":"facebook","credentials":"facebook:1"}'
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"modissense/internal/core"
	"modissense/internal/exec"
	"modissense/internal/repos"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nodes := flag.Int("nodes", 4, "simulated worker nodes")
	regionsPerNode := flag.Int("regions-per-node", 4, "visits-table regions per node")
	pois := flag.Int("pois", 800, "POI catalog size")
	population := flag.Int("population", 2000, "users per simulated social network")
	seed := flag.Int64("seed", 1, "master random seed")
	normalized := flag.Bool("normalized-schema", false, "use the normalized (join-at-query-time) visits schema")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-request query deadline (0 = none); expiry answers 504")
	scatterWorkers := flag.Int("scatter-workers", 0, "scatter-gather worker-pool size (0 = GOMAXPROCS)")
	readReplicas := flag.Int("read-replicas", 0, "read-only replicas per visits region (0 = no replication)")
	readAttempts := flag.Int("read-attempts", 0, "per-region read attempt budget (0 = plain fail-fast reads)")
	readHedgeAfter := flag.Duration("read-hedge-after", 0, "enable latency hedging, capped at this threshold (0 = no hedging)")
	allowDegraded := flag.Bool("allow-degraded", false, "answer partial results when a region exhausts its read attempts")
	admitQPS := flag.Float64("admit-qps", 0, "interactive admission rate in requests/s; batch routes get half (0 = no rate limiting)")
	admitBurst := flag.Int("admit-burst", 0, "interactive admission token-bucket depth (0 = derived from -admit-qps)")
	execQueueCap := flag.Int("exec-queue-cap", 0, "bound on the exec pool's waiter queue; enables deadline-aware admission (0 = unbounded)")
	retryBudget := flag.Float64("retry-budget", 0, "retries+hedges allowed per primary read attempt, e.g. 0.1 (0 = unthrottled)")
	breakerFailures := flag.Int("breaker-failures", 0, "consecutive node failures that trip a circuit breaker (0 = breakers off)")
	breakerOpenFor := flag.Duration("breaker-open-for", 0, "base breaker open interval before the first half-open probe (0 = 500ms default)")
	breakerSlowAfter := flag.Duration("breaker-slow-after", 0, "charge read attempts still running after this duration as failures (0 = off)")
	failover := flag.Bool("failover", false, "enable write-path failover: failure detection, replica promotion with epoch fencing, rejoin (requires -read-replicas >= 1)")
	suspectAfter := flag.Int("suspect-after", 0, "consecutive node failures before the failure detector marks it suspect (0 = default, 3)")
	downAfter := flag.Int("down-after", 0, "consecutive node failures before the detector downs the node and promotes (0 = default, 6)")
	walDir := flag.String("wal-dir", "", "directory for the durable visits WAL (empty = in-memory, no recovery)")
	walSync := flag.String("wal-sync", "os", "WAL durability policy: os (buffered) or group (one fsync per commit group)")
	compactRate := flag.Float64("compact-rate-mb", 0, "background-compaction I/O cap in MB/s (0 = unlimited)")
	memtableFlush := flag.Int("memtable-flush-bytes", 0, "per-region memtable size that triggers rotation and background flush (0 = engine default)")
	writeQPS := flag.Float64("write-qps", 0, "write-class admission rate in requests/s for batched check-ins (0 = no rate limiting)")
	blockSize := flag.Int("block-size", 0, "target encoded segment-block size in bytes (0 = engine default, 4096)")
	blockCacheMB := flag.Int("block-cache-mb", 0, "decoded-block cache shared by all tables, in MiB (0 = process default, 64)")
	blockCompression := flag.String("block-compression", "none", "segment block codec: none, flate or snappy")
	maxSubscriptions := flag.Int("max-subscriptions", 0, "global cap on live pub/sub subscriptions (0 = registry default, 10000)")
	subQueueCap := flag.Int("sub-queue-cap", 0, "per-subscription bounded event queue; overflow drops oldest (0 = registry default, 256)")
	subTTL := flag.Duration("sub-ttl", 0, "default subscription time-to-live (0 = registry default, 15m; clamped to 24h)")
	hotinBucket := flag.Duration("hotin-bucket", time.Hour, "materialized trending view bucket width (0 = 1h default)")
	hotinHorizon := flag.Duration("hotin-horizon", 336*time.Hour, "trending view retention horizon; friendless trending windows are clamped to this span (0 = 14d default)")
	resultCacheMB := flag.Int("result-cache-mb", 32, "personalized result cache budget in MiB (0 disables caching)")
	flag.Parse()

	exec.SetDefaultWorkers(*scatterWorkers)

	cfg := core.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.RegionsPerNode = *regionsPerNode
	cfg.POIs = *pois
	cfg.NetworkPopulation = *population
	cfg.Seed = *seed
	cfg.QueryTimeout = *queryTimeout
	cfg.ReadReplicas = *readReplicas
	cfg.ReadMaxAttempts = *readAttempts
	cfg.ReadHedgeAfter = *readHedgeAfter
	cfg.AllowDegraded = *allowDegraded
	cfg.AdmitQPS = *admitQPS
	cfg.AdmitBurst = *admitBurst
	cfg.ExecQueueCap = *execQueueCap
	cfg.RetryBudgetRatio = *retryBudget
	cfg.BreakerFailures = *breakerFailures
	cfg.BreakerOpenFor = *breakerOpenFor
	cfg.BreakerSlowAfter = *breakerSlowAfter
	cfg.FailoverEnabled = *failover
	cfg.SuspectAfter = *suspectAfter
	cfg.DownAfter = *downAfter
	cfg.WALDir = *walDir
	cfg.WALSync = *walSync
	cfg.CompactRateMBps = *compactRate
	cfg.MemtableFlushBytes = *memtableFlush
	cfg.WriteQPS = *writeQPS
	cfg.BlockSizeBytes = *blockSize
	cfg.BlockCacheMB = *blockCacheMB
	cfg.BlockCompression = *blockCompression
	cfg.MaxSubscriptions = *maxSubscriptions
	cfg.SubQueueCap = *subQueueCap
	cfg.SubTTL = *subTTL
	cfg.HotInBucket = *hotinBucket
	cfg.HotInHorizon = *hotinHorizon
	cfg.ResultCacheMB = *resultCacheMB
	if *normalized {
		cfg.VisitSchema = repos.SchemaNormalized
	}

	log.Printf("booting platform: %d nodes × %d regions, %d POIs, %d users/network, schema=%s, wal=%q (sync=%s)",
		cfg.Nodes, cfg.RegionsPerNode, cfg.POIs, cfg.NetworkPopulation, cfg.VisitSchema, cfg.WALDir, cfg.WALSync)
	p, err := core.New(cfg)
	if err != nil {
		log.Fatalf("boot: %v", err)
	}
	log.Printf("platform ready; serving REST API on %s", *addr)
	if err := http.ListenAndServe(*addr, core.NewHandler(p)); err != nil {
		log.Fatalf("serve: %v", err)
	}
}
