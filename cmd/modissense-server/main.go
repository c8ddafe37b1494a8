// Command modissense-server boots a MoDisSENSE platform instance and
// serves its REST API until SIGINT/SIGTERM, then drains in-flight requests
// and closes the platform.
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
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"modissense/internal/core"
)

// shutdownGrace bounds how long a signalled server waits for in-flight
// requests before it closes the platform under them.
const shutdownGrace = 10 * time.Second

// bindFlags registers the server's flags on fs, each bound to its field of
// cfg with the field's current value as the default — OPERATIONS.md's Knobs
// tables document them, and main_test.go holds the two in bijection. It
// returns the listen address, the one flag that is not platform
// configuration.
func bindFlags(fs *flag.FlagSet, cfg *core.Config) *string {
	addr := fs.String("addr", ":8080", "listen address")
	fs.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "simulated worker nodes")
	fs.IntVar(&cfg.RegionsPerNode, "regions-per-node", cfg.RegionsPerNode, "visits-table regions per node")
	fs.IntVar(&cfg.POIs, "pois", cfg.POIs, "POI catalog size")
	fs.IntVar(&cfg.NetworkPopulation, "population", cfg.NetworkPopulation, "users per simulated social network")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "master random seed")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", cfg.QueryTimeout, "per-request query deadline (0 = none); expiry answers 504")
	fs.IntVar(&cfg.ReadReplicas, "read-replicas", cfg.ReadReplicas, "read-only replicas per visits region (0 = no replication)")
	fs.IntVar(&cfg.ReadMaxAttempts, "read-attempts", cfg.ReadMaxAttempts, "per-region read attempt budget (0 = plain fail-fast reads); from 2, with replicas, a read slower than the observed p95 is hedged")
	fs.BoolVar(&cfg.AllowDegraded, "allow-degraded", cfg.AllowDegraded, "answer partial results when a region exhausts its read attempts")
	fs.Float64Var(&cfg.AdmitQPS, "admit-qps", cfg.AdmitQPS, "interactive admission rate in requests/s, burst of one second's worth; batch routes get half (0 = no rate limiting)")
	fs.IntVar(&cfg.ExecQueueCap, "exec-queue-cap", cfg.ExecQueueCap, "bound on the exec pool's waiter queue; enables deadline-aware admission (0 = unbounded)")
	fs.Float64Var(&cfg.RetryBudgetRatio, "retry-budget", cfg.RetryBudgetRatio, "retries+hedges allowed per primary read attempt, e.g. 0.1 (0 = unthrottled)")
	fs.IntVar(&cfg.BreakerFailures, "breaker-failures", cfg.BreakerFailures, "consecutive node failures that trip a circuit breaker (0 = breakers off)")
	fs.DurationVar(&cfg.BreakerSlowAfter, "breaker-slow-after", cfg.BreakerSlowAfter, "charge read attempts still running after this duration as failures (0 = off)")
	fs.BoolVar(&cfg.FailoverEnabled, "failover", cfg.FailoverEnabled, "enable write-path failover: failure detection, replica promotion with epoch fencing, rejoin (requires -read-replicas >= 1)")
	fs.IntVar(&cfg.DownAfter, "down-after", cfg.DownAfter, "consecutive node failures before the detector downs the node and promotes; suspect at half (0 = default, 6)")
	fs.StringVar(&cfg.WALDir, "wal-dir", cfg.WALDir, "directory for the durable visits WAL (empty = in-memory, no recovery)")
	fs.StringVar(&cfg.WALSync, "wal-sync", cfg.WALSync, "WAL durability policy: os (written to the file per commit group) or group (plus one fsync per group)")
	fs.IntVar(&cfg.MemtableFlushBytes, "memtable-flush-bytes", cfg.MemtableFlushBytes, "per-region memtable size that triggers rotation and background flush (0 = engine default)")
	fs.Float64Var(&cfg.WriteQPS, "write-qps", cfg.WriteQPS, "write-class admission rate in requests/s for batched check-ins (0 = no rate limiting)")
	fs.IntVar(&cfg.BlockCacheMB, "block-cache-mb", cfg.BlockCacheMB, "decoded-block cache shared by all tables, in MiB (0 = process default, 64)")
	fs.IntVar(&cfg.MaxSubscriptions, "max-subscriptions", cfg.MaxSubscriptions, "global cap on live pub/sub subscriptions (0 = registry default, 10000)")
	fs.IntVar(&cfg.SubQueueCap, "sub-queue-cap", cfg.SubQueueCap, "per-subscription bounded event queue; overflow drops oldest (0 = registry default, 256)")
	fs.DurationVar(&cfg.HotInBucket, "hotin-bucket", cfg.HotInBucket, "materialized trending view bucket width (0 = 1h)")
	fs.DurationVar(&cfg.HotInHorizon, "hotin-horizon", cfg.HotInHorizon, "trending view retention horizon; friendless trending windows are clamped to this span (0 = 14d)")
	fs.IntVar(&cfg.ResultCacheMB, "result-cache-mb", cfg.ResultCacheMB, "personalized result cache budget in MiB (0 disables caching)")
	return addr
}

func main() {
	cfg := core.DefaultConfig()
	cfg.ResultCacheMB = 32 // the library default is off; a server caches rankings
	addr := bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := serve(*addr, cfg); err != nil {
		log.Fatal(err)
	}
}

// serve boots the platform, serves the API on addr until SIGINT/SIGTERM (or
// the listener fails), drains in-flight requests for at most shutdownGrace
// and closes the platform: maintenance drained, WAL released.
func serve(addr string, cfg core.Config) error {
	log.Printf("booting platform: %d nodes × %d regions, %d POIs, %d users/network, schema=%s, wal=%q (sync=%s)",
		cfg.Nodes, cfg.RegionsPerNode, cfg.POIs, cfg.NetworkPopulation, cfg.VisitSchema, cfg.WALDir, cfg.WALSync)
	p, err := core.New(cfg)
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	srv := &http.Server{Addr: addr, Handler: core.NewHandler(p)}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	listenErr := make(chan error, 1)
	go func() { listenErr <- srv.ListenAndServe() }()
	log.Printf("platform ready; serving REST API on %s", addr)

	select {
	case err = <-listenErr:
		err = fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		stop() // a second signal kills the process the default way
		log.Printf("signal received; draining for up to %s", shutdownGrace)
		drain, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err = srv.Shutdown(drain); err != nil {
			err = fmt.Errorf("shutdown: %w", err)
		}
		cancel()
	}
	if closeErr := p.Close(); closeErr != nil {
		err = errors.Join(err, fmt.Errorf("close: %w", closeErr))
	}
	return err
}
