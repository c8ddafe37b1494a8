// Package core wires every module into the MoDisSENSE platform: the
// simulated cluster, the six repositories, the social connectors and user
// management, the data-collection pipeline, the sentiment classifier, the
// query-answering engine, the incrementally maintained HotIn view, event
// detection and blog generation — plus the REST API the web and mobile
// clients speak.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"modissense/internal/admit"
	"modissense/internal/cluster"
	"modissense/internal/dbscan"
	"modissense/internal/exec"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/obs"
	"modissense/internal/pubsub"
	"modissense/internal/query"
	"modissense/internal/repos"
	"modissense/internal/social"
	"modissense/internal/textproc"
	"modissense/internal/trajectory"
	"modissense/internal/workload"
)

// Config sizes a platform instance. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Nodes is the worker-node count of the simulated HBase/Hadoop cluster.
	Nodes int
	// RegionsPerNode controls the Visits table pre-split: total regions =
	// Nodes × RegionsPerNode. More regions mean more intra-query
	// parallelism (the paper's coprocessor observation).
	RegionsPerNode int
	// Seed drives every random generator in the platform.
	Seed int64
	// POIs is the catalog size (the paper crawls 8 500).
	POIs int
	// NetworkPopulation is the user count of each simulated social network
	// (the paper emulates 150 000).
	NetworkPopulation int
	// MeanFriends is the average friend-list size on each network.
	MeanFriends int
	// CheckinsPerDay is each network's per-user daily check-in rate.
	CheckinsPerDay float64
	// VisitSchema selects the Visits repository layout.
	VisitSchema repos.VisitSchema
	// ClassifierTrainDocs is the sentiment-classifier training-corpus size
	// (1000 is the scaled quality threshold of Figure 4).
	ClassifierTrainDocs int
	// ClassifierOptions selects the preprocessing pipeline.
	ClassifierOptions textproc.PipelineOptions
	// GPSCompressionToleranceMeters, when positive, compresses pushed GPS
	// traces with time-aware Douglas–Peucker before storage (0 = store
	// raw fixes).
	GPSCompressionToleranceMeters float64
	// QueryTimeout bounds every API query (search, trending, event
	// detection, pipeline): the HTTP layer derives each request's context
	// with this deadline and answers 504 when it fires. Zero disables the
	// deadline.
	QueryTimeout time.Duration
	// ReadReplicas enables N read-only replicas per Visits region, kept
	// consistent via WAL shipping (0 = no replication).
	ReadReplicas int
	// ReadMaxAttempts, when > 0, routes the personalized scatter through the
	// fault-tolerant read path with this per-region attempt budget (hedges
	// included). Zero keeps the plain fail-fast path. With a replica to race
	// (ReadReplicas >= 1) and an attempt to spend (>= 2), a read slower than
	// the observed p95 is hedged.
	ReadMaxAttempts int
	// AllowDegraded answers partial results (degraded: true plus the missing
	// region ids) when a region exhausts its read attempts, instead of
	// failing the query.
	AllowDegraded bool
	// AdmitQPS, when > 0, enables token-bucket admission on the exec-heavy
	// API routes: interactive traffic (search) is admitted at this rate,
	// batch traffic (trending, events, pipeline) at half of it, so batch is
	// the first to shed under pressure. Over-rate requests answer 429 with
	// a Retry-After hint. Each bucket holds one second's worth.
	AdmitQPS float64
	// ExecQueueCap, when > 0, bounds the shared exec pool's waiter queue:
	// beyond the cap the newest lowest-priority task is shed (503). It also
	// arms deadline-aware admission — requests whose predicted queue wait
	// exceeds their remaining deadline are rejected up front. Note the exec
	// pool is process-wide, so the cap outlives this Platform.
	ExecQueueCap int
	// RetryBudgetRatio, when > 0, caps the engine's retries+hedges at this
	// fraction of primary read attempts (gRPC-style retry throttling), so
	// retry amplification cannot turn an overload metastable.
	RetryBudgetRatio float64
	// BreakerFailures, when > 0, enables per-node circuit breakers on the
	// fault-tolerant read path: a node tripping this many consecutive
	// failures is fast-failed until a half-open probe succeeds.
	BreakerFailures int
	// BreakerSlowAfter, when > 0, also charges attempts still running after
	// this duration as failures (fail-slow detection). Keep it below the
	// hedge threshold or stalled attempts are canceled before they are
	// charged.
	BreakerSlowAfter time.Duration
	// FailoverEnabled arms write-path fault tolerance on the Visits table:
	// a per-node failure detector fed by real operation outcomes, replica
	// promotion with epoch fencing when a primary's node goes down, and
	// rejoin-as-replica for recovered nodes. Requires ReadReplicas >= 1
	// (promotion needs a survivor to promote).
	FailoverEnabled bool
	// DownAfter is the consecutive-failure count that marks a node down
	// and triggers promotion (0 keeps the default of 6); a node is suspect
	// halfway there.
	DownAfter int
	// WALDir, when non-empty, makes the Visits table durable: every write is
	// group-committed to WALDir/visits.wal before it applies, and booting
	// over an existing log replays it. Empty keeps the seed's in-memory
	// behaviour.
	WALDir string
	// WALSync picks the WAL durability policy: "os" (default; acknowledged
	// once written to the file) or "group" (one fsync per commit group).
	WALSync string
	// CompactRateMBps caps background-compaction I/O across the Visits
	// regions in MB/s (0 = unlimited).
	CompactRateMBps float64
	// MemtableFlushBytes overrides the per-region memtable flush threshold
	// (0 keeps the kvstore default).
	MemtableFlushBytes int
	// WriteQPS, when > 0, rate-limits the write class (the batched check-in
	// endpoint) at admission; tokens are per request, not per cell, and the
	// bucket holds one second's worth.
	WriteQPS float64
	// BlockCacheMB sizes one block cache shared by every table of this
	// platform, in MiB (0 keeps the process-wide default cache).
	BlockCacheMB int
	// BlockCompression selects the per-block segment codec: "none"
	// (default), "flate" or "snappy".
	BlockCompression string
	// MaxSubscriptions caps the pub/sub registry's live standing queries;
	// beyond it new subscriptions are shed with 503 (0 keeps the pubsub
	// default of 10000).
	MaxSubscriptions int
	// SubQueueCap sizes each subscriber's bounded event queue; a full queue
	// drops its oldest event (0 keeps the pubsub default of 256).
	SubQueueCap int
	// HotInBucket is the bucket width of the incrementally maintained
	// trending view: per-POI visit aggregates updated on every stored
	// check-in, the one source of friendless trending answers and of the
	// hotness/interest UpdateHotIn writes (0 keeps the 1-hour default).
	HotInBucket time.Duration
	// HotInHorizon bounds the trending view's retention: buckets older than
	// this behind the newest applied check-in are dropped, and every
	// friendless trending window is clamped to at most this span (0 keeps
	// the 14-day default).
	HotInHorizon time.Duration
	// ResultCacheMB, when > 0, enables the per-user personalized result
	// cache at this MiB budget: completed top-k rankings are memoized by
	// normalized query spec and invalidated when any queried friend checks
	// in. 0 (the default) disables it.
	ResultCacheMB int
}

// DefaultConfig returns a demo-scale platform: big enough to exercise
// every code path, small enough to boot in well under a second.
func DefaultConfig() Config {
	return Config{
		Nodes:               4,
		RegionsPerNode:      4,
		Seed:                1,
		POIs:                800,
		NetworkPopulation:   2000,
		MeanFriends:         30,
		CheckinsPerDay:      1.5,
		VisitSchema:         repos.SchemaReplicated,
		ClassifierTrainDocs: 1000,
		ClassifierOptions:   textproc.OptimizedOptions(),
		QueryTimeout:        30 * time.Second,
		WALSync:             "os",
		BlockCompression:    "none",
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Nodes < 1 || c.RegionsPerNode < 1 {
		return fmt.Errorf("core: nodes/regionsPerNode must be positive")
	}
	if c.POIs < 1 {
		return fmt.Errorf("core: POIs must be positive")
	}
	if c.NetworkPopulation < 2 {
		return fmt.Errorf("core: network population too small")
	}
	if c.MeanFriends < 1 || c.MeanFriends >= c.NetworkPopulation {
		return fmt.Errorf("core: mean friends out of range")
	}
	if c.CheckinsPerDay <= 0 {
		return fmt.Errorf("core: check-in rate must be positive")
	}
	if c.ClassifierTrainDocs < 10 {
		return fmt.Errorf("core: classifier training corpus too small")
	}
	if c.QueryTimeout < 0 {
		return fmt.Errorf("core: negative query timeout")
	}
	if c.ReadReplicas < 0 {
		return fmt.Errorf("core: negative read replicas")
	}
	if c.ReadMaxAttempts < 0 {
		return fmt.Errorf("core: negative read attempts")
	}
	if c.AdmitQPS < 0 {
		return fmt.Errorf("core: negative admission rate")
	}
	if c.ExecQueueCap < 0 {
		return fmt.Errorf("core: negative exec queue cap")
	}
	if c.RetryBudgetRatio < 0 {
		return fmt.Errorf("core: negative retry-budget ratio")
	}
	if c.BreakerFailures < 0 || c.BreakerSlowAfter < 0 {
		return fmt.Errorf("core: negative breaker parameters")
	}
	if c.DownAfter < 0 {
		return fmt.Errorf("core: negative failover threshold")
	}
	if c.FailoverEnabled && c.ReadReplicas < 1 {
		return fmt.Errorf("core: failover requires read replicas (promotion needs a survivor)")
	}
	if c.CompactRateMBps < 0 || c.MemtableFlushBytes < 0 {
		return fmt.Errorf("core: negative compaction rate/flush threshold")
	}
	if c.WriteQPS < 0 {
		return fmt.Errorf("core: negative write admission rate")
	}
	if c.BlockCacheMB < 0 {
		return fmt.Errorf("core: negative block cache size")
	}
	if c.MaxSubscriptions < 0 || c.SubQueueCap < 0 {
		return fmt.Errorf("core: negative subscription cap/queue")
	}
	if c.HotInBucket < 0 || c.HotInHorizon < 0 {
		return fmt.Errorf("core: negative trending view bucket/horizon")
	}
	if c.ResultCacheMB < 0 {
		return fmt.Errorf("core: negative result cache size")
	}
	return nil
}

// readPolicy is the engine read policy the configuration asks for: nil (one
// fail-fast attempt) without an attempt budget, else the query package's
// recommended policy with the budget, seed and degradation switch from c.
func (c Config) readPolicy() *query.ReadPolicy {
	if c.ReadMaxAttempts < 1 {
		return nil
	}
	pol := query.DefaultReadPolicy()
	pol.MaxAttempts = c.ReadMaxAttempts
	pol.JitterSeed = c.Seed
	// A hedge needs a replica to race and an attempt to spend; when it fires
	// is the latency tracker's p95 under the policy's own cap.
	pol.HedgeEnabled = c.ReadReplicas >= 1 && c.ReadMaxAttempts >= 2
	pol.AllowDegraded = c.AllowDegraded
	return &pol
}

// Platform is a fully wired MoDisSENSE instance.
type Platform struct {
	cfg Config

	Cluster    *cluster.Cluster
	POIs       *repos.POIRepo
	Visits     *repos.VisitsRepo
	SocialInfo *repos.SocialInfoRepo
	Texts      *repos.TextRepo
	GPS        *repos.GPSRepo
	Blogs      *repos.BlogsRepo
	Users      *social.UserManager
	Collector  *social.Collector
	Classifier *textproc.NaiveBayes
	Query      *query.Engine
	// Traces keeps the most recent request traces, keyed by X-Request-ID and
	// served by GET /api/v1/queries/{id}/trace.
	Traces *obs.TraceStore
	// Admission is the overload-admission controller consulted by the API
	// middleware on exec-heavy routes; nil (the default) admits everything.
	Admission *admit.Controller
	// PubSub is the standing-query registry: every check-in stored through
	// the Visits repository (API ingest and collector alike) is matched
	// against it and delivered to subscriber queues.
	PubSub *pubsub.Registry
	// MatView is the incrementally maintained trending view, the platform's
	// one aggregator of hotness; the Visits store hook applies every
	// committed batch as counter deltas.
	MatView *matview.HotInView
	// ResultCache memoizes the merge state of completed personalized
	// queries (nil unless ResultCacheMB is set); the Visits store hooks fold
	// every committed check-in into the entries of the writer's friends.
	ResultCache *matview.ResultCache

	catalog []model.POI
}

// New boots a platform: generates the POI catalog, trains the sentiment
// classifier, builds the simulated networks and wires all modules.
func New(cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, Traces: obs.NewTraceStore(0)}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Cluster.
	clus, err := cluster.New(cluster.DefaultConfig(cfg.Nodes))
	if err != nil {
		return nil, err
	}
	p.Cluster = clus

	// Repositories.
	p.POIs = repos.NewPOIRepo()
	p.Blogs = repos.NewBlogsRepo()
	kvOpts := kvstore.DefaultStoreOptions()
	kvOpts.Seed = cfg.Seed
	if cfg.MemtableFlushBytes > 0 {
		kvOpts.FlushThresholdBytes = cfg.MemtableFlushBytes
	}
	if cfg.CompactRateMBps > 0 {
		kvOpts.CompactionRate = kvstore.NewRateLimiter(int(cfg.CompactRateMBps * 1e6))
	}
	if kvOpts.WALSyncPolicy, err = kvstore.ParseSyncPolicy(cfg.WALSync); err != nil {
		return nil, err
	}
	if kvOpts.BlockCompression, err = kvstore.ParseBlockCompression(cfg.BlockCompression); err != nil {
		return nil, err
	}
	if cfg.BlockCacheMB > 0 {
		// One cache for all of this platform's tables, so the configured
		// budget is a platform-wide ceiling rather than per-table.
		kvOpts.BlockCache = kvstore.NewBlockCache(int64(cfg.BlockCacheMB) << 20)
	}
	maxUser := int64(cfg.NetworkPopulation) * 4 // headroom for platform accounts
	regions := cfg.Nodes * cfg.RegionsPerNode
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("core: wal dir: %w", err)
		}
		p.Visits, err = repos.NewDurableVisitsRepo(cfg.VisitSchema, maxUser, regions, cfg.Nodes, kvOpts,
			filepath.Join(cfg.WALDir, "visits.wal"))
	} else {
		p.Visits, err = repos.NewVisitsRepo(cfg.VisitSchema, maxUser, regions, cfg.Nodes, kvOpts)
	}
	if err != nil {
		return nil, err
	}
	if p.SocialInfo, err = repos.NewSocialInfoRepo(maxUser, regions, cfg.Nodes, kvOpts); err != nil {
		return nil, err
	}
	if p.Texts, err = repos.NewTextRepo(int64(cfg.POIs)+1, regions, cfg.Nodes, kvOpts); err != nil {
		return nil, err
	}
	if p.GPS, err = repos.NewGPSRepo(maxUser, regions, cfg.Nodes, kvOpts); err != nil {
		return nil, err
	}

	// POI catalog.
	p.catalog = workload.GenPOIs(rng, cfg.POIs)
	for _, poi := range p.catalog {
		if _, err := p.POIs.Insert(poi); err != nil {
			return nil, err
		}
	}

	// Sentiment classifier, trained on the synthetic review corpus at the
	// quality threshold.
	corpus, err := workload.GenReviews(rand.New(rand.NewSource(cfg.Seed+1)), cfg.ClassifierTrainDocs, workload.DefaultReviewOptions())
	if err != nil {
		return nil, err
	}
	if p.Classifier, err = textproc.TrainNaiveBayes(corpus, cfg.ClassifierOptions); err != nil {
		return nil, err
	}

	// Social networks + user management.
	var connectors []social.Connector
	for i, name := range []string{"facebook", "twitter", "foursquare"} {
		conn, err := social.NewSimConnector(social.SimNetworkConfig{
			Name:           name,
			Seed:           cfg.Seed + int64(i)*101,
			Population:     cfg.NetworkPopulation,
			MeanFriends:    cfg.MeanFriends,
			CheckinsPerDay: cfg.CheckinsPerDay,
			POIs:           p.catalog,
			PositiveRate:   0.6,
		})
		if err != nil {
			return nil, err
		}
		connectors = append(connectors, conn)
	}
	if p.Users, err = social.NewUserManager(connectors...); err != nil {
		return nil, err
	}

	// Data collection.
	sink, err := repos.NewSink(p.SocialInfo, p.Texts, p.Visits)
	if err != nil {
		return nil, err
	}
	if p.Collector, err = social.NewCollector(p.Users, sink, p.Classifier, p.POIs, 8); err != nil {
		return nil, err
	}

	// Query answering.
	if p.Query, err = query.NewEngine(p.Visits, p.POIs, clus); err != nil {
		return nil, err
	}

	// Continuous queries: the pub/sub registry plus its ingest hook. Every
	// visit batch the Visits repository commits — whether it arrived through
	// POST /checkins or a collector pass — is matched against the standing
	// subscriptions. The registry spawns no goroutines; the hook runs
	// synchronously on the writer and costs one R-tree probe per check-in.
	p.PubSub = pubsub.NewRegistry(pubsub.Options{
		MaxSubscriptions: cfg.MaxSubscriptions,
		QueueCap:         cfg.SubQueueCap,
	})

	// Materialized trending view + personalized result cache (the cache off
	// by default; see DESIGN.md "Materialized trending & result caching").
	// The view and the cache ride the same store hooks as pub/sub: a batch is
	// announced to the cache before the table write, and once committed →
	// counter deltas into the view, the visits folded into the cache's
	// entries, then subscription matching.
	p.MatView, err = matview.NewHotInView(matview.ViewOptions{
		BucketMillis:  cfg.HotInBucket.Milliseconds(),
		HorizonMillis: cfg.HotInHorizon.Milliseconds(),
	})
	if err != nil {
		return nil, fmt.Errorf("core: trending view: %w", err)
	}
	p.Query.SetHotInView(p.MatView)
	if cfg.ResultCacheMB > 0 {
		p.ResultCache = matview.NewResultCache(int64(cfg.ResultCacheMB) << 20)
		p.Query.SetResultCache(p.ResultCache)
	}
	var announce func([]model.Visit)
	if p.ResultCache != nil {
		announce = p.ResultCache.Announce
	}
	p.Visits.SetOnStore(announce, p.onVisitsStored)

	// A durable boot replays WAL history before the hooks above exist, so
	// the view's aggregates must be rebuilt from one scan; the normalized
	// schema stores POI ids only, so the catalog is joined back in.
	if cfg.WALDir != "" {
		batch := make([]model.Visit, 0, 1024)
		scanErr := p.Visits.ScanAll(func(v model.Visit) bool {
			if cfg.VisitSchema != repos.SchemaReplicated {
				if poi, ok := p.POIs.Get(v.POI.ID); ok {
					v.POI = poi
				}
			}
			batch = append(batch, v)
			if len(batch) == cap(batch) {
				p.MatView.Apply(batch)
				batch = batch[:0]
			}
			return true
		})
		if scanErr != nil {
			return nil, fmt.Errorf("core: warm trending view: %w", scanErr)
		}
		p.MatView.Apply(batch)
	}

	// Fault-tolerant read path (off by default; see OPERATIONS.md).
	if cfg.ReadReplicas > 0 {
		if err := p.Visits.Table().EnableReplication(cfg.ReadReplicas); err != nil {
			return nil, err
		}
	}
	// Write-path fault tolerance (off by default; see OPERATIONS.md
	// "Write-path failover"). Must follow EnableReplication: promotion
	// needs replicas to promote.
	if cfg.FailoverEnabled {
		if err := p.Visits.Table().EnableFailover(kvstore.FailoverConfig{DownAfter: cfg.DownAfter}); err != nil {
			return nil, err
		}
	}
	p.Query.SetReadPolicy(cfg.readPolicy())

	// Overload protection (off by default; see OPERATIONS.md "Overload &
	// shedding"). The exec pool is process-wide, so the queue cap and run
	// tracker installed here outlive the platform instance.
	pool := exec.Default()
	if cfg.ExecQueueCap > 0 {
		pool.SetQueueCap(cfg.ExecQueueCap)
	}
	if cfg.AdmitQPS > 0 || cfg.ExecQueueCap > 0 || cfg.WriteQPS > 0 {
		acfg := admit.Config{
			WriteQPS:   cfg.WriteQPS,
			WriteBurst: int(math.Ceil(cfg.WriteQPS)),
			// Write admission watches the Visits table's hottest region: when
			// flushing lags ingest to the stall point, check-in pushes answer
			// 503 + Retry-After instead of blocking inside the write lock.
			MemPressure: p.Visits.Table().WritePressure,
		}
		if cfg.AdmitQPS > 0 || cfg.ExecQueueCap > 0 {
			runTimes := exec.NewLatencyTracker(0)
			pool.SetRunTracker(runTimes)
			burst := int(math.Ceil(cfg.AdmitQPS))
			acfg.InteractiveQPS = cfg.AdmitQPS
			acfg.InteractiveBurst = burst
			// Batch runs at half the interactive rate: under pressure the
			// analytical routes are the first to be shed.
			acfg.BatchQPS = cfg.AdmitQPS / 2
			acfg.BatchBurst = max(1, burst/2)
			acfg.QueueLen = pool.QueueLen
			acfg.Workers = pool.Workers()
			acfg.RunTime = runTimes
		}
		p.Admission = admit.NewController(acfg)
	}
	if cfg.RetryBudgetRatio > 0 {
		// Burst of 10 lets short failure blips retry freely; only a
		// sustained failure rate above the ratio is throttled.
		p.Query.SetRetryBudget(exec.NewRetryBudget(cfg.RetryBudgetRatio, 10))
	}
	if cfg.BreakerFailures > 0 {
		bs := admit.NewBreakerSet(admit.BreakerConfig{
			Failures:  cfg.BreakerFailures,
			SlowAfter: cfg.BreakerSlowAfter,
			Seed:      cfg.Seed,
		})
		if cfg.FailoverEnabled {
			// A tripped read breaker escalates the node to suspect in the
			// failure detector, so sustained read trouble shortens the
			// distance to a write-side down verdict.
			bs.SetOnTrip(p.Visits.Table().MarkNodeSuspect)
		}
		p.Query.SetBreakers(bs)
	}
	return p, nil
}

// Close drains the Visits table's background maintenance and releases its
// WAL (a no-op for non-durable platforms). The platform must not serve
// requests afterwards.
func (p *Platform) Close() error {
	if p.Visits == nil {
		return nil
	}
	if err := p.Visits.Table().WaitMaintenance(); err != nil {
		p.Visits.Table().Close()
		return err
	}
	return p.Visits.Table().Close()
}

// Catalog returns the generated POI catalog.
func (p *Platform) Catalog() []model.POI { return p.catalog }

// Collect runs one data-collection pass over (since, until].
func (p *Platform) Collect(since, until time.Time) (social.RunStats, error) {
	return p.Collector.Run(model.Millis(since), model.Millis(until))
}

// HotInStats summarizes one hotness/interest refresh.
type HotInStats struct {
	VisitsAggregated int
	POIsUpdated      int
	// MaxVisits is the window's hottest POI visit count (the hotness
	// normalizer).
	MaxVisits int
}

// UpdateHotIn refreshes the POI repository's hotness/interest columns — the
// ordering of the paper's non-personalized search — from the trending view's
// aggregates over [from, to), bounds quantized outward to view buckets.
// Hotness is a POI's visit count divided by the window maximum (∈ [0,1]);
// interest is its mean sentiment grade rescaled from [1,5] to [0,1]. POIs
// with no visit in the window keep their stored values, and only what the
// view retains (HotInHorizon behind the newest check-in) can be counted.
func (p *Platform) UpdateHotIn(from, to time.Time) (HotInStats, error) {
	if to.Before(from) {
		return HotInStats{}, fmt.Errorf("core: hotin window inverted")
	}
	// TopK ranks by visits descending, so the first aggregate is the maximum.
	aggs, _ := p.MatView.TopK(matview.TopKSpec{FromMillis: model.Millis(from), ToMillis: model.Millis(to)})
	var stats HotInStats
	if len(aggs) > 0 {
		stats.MaxVisits = aggs[0].Visits
	}
	for _, a := range aggs {
		stats.VisitsAggregated += a.Visits
		hotness := float64(a.Visits) / float64(stats.MaxVisits)
		interest := (a.GradeSum/float64(a.Visits) - 1) / 4
		if err := p.POIs.UpdateHotIn(a.POI.ID, hotness, interest); err != nil {
			continue // visited, but no longer (or never) in the catalog
		}
		stats.POIsUpdated++
	}
	return stats, nil
}

// SearchRequest is the platform-level personalized search request: the
// caller is an authenticated user; Friends optionally restricts the friend
// set ("a specific subset, or all, of my friends"). A nil/empty Friends
// uses every friend from every linked network.
type SearchRequest struct {
	Token    string
	BBox     *geo.Rect
	Keyword  string
	Friends  []int64
	From, To time.Time
	OrderBy  query.OrderBy
	Limit    int
}

// Search answers a personalized query for the authenticated user.
// Cancelling ctx aborts the region scans mid-flight.
func (p *Platform) Search(ctx context.Context, req SearchRequest) (*query.Result, error) {
	uid, err := p.Users.Authenticate(req.Token)
	if err != nil {
		return nil, err
	}
	friends := req.Friends
	if len(friends) == 0 {
		all, err := p.Users.Friends(uid)
		if err != nil {
			return nil, err
		}
		for _, f := range all {
			friends = append(friends, f.ID)
		}
	}
	return p.Query.Run(ctx, query.Spec{
		BBox:       req.BBox,
		Keyword:    req.Keyword,
		FriendIDs:  friends,
		FromMillis: model.Millis(req.From),
		ToMillis:   model.Millis(req.To),
		OrderBy:    req.OrderBy,
		Limit:      req.Limit,
	})
}

// Trending answers a trending-events query; with a friend list it is
// personalized, otherwise it is served from the trending view.
func (p *Platform) Trending(ctx context.Context, bbox *geo.Rect, friends []int64, from, to time.Time, limit int) (*query.Result, error) {
	return p.Query.Trending(ctx, query.Spec{
		BBox:       bbox,
		FriendIDs:  friends,
		FromMillis: model.Millis(from),
		ToMillis:   model.Millis(to),
		Limit:      limit,
	})
}

// CheckinPush is one check-in in a batched ingest request.
type CheckinPush struct {
	// POIID references the visited catalog POI.
	POIID int64 `json:"poi_id"`
	// Time is the check-in timestamp in milliseconds since epoch.
	Time int64 `json:"time"`
	// Grade is the optional sentiment grade on the 1–5 scale (0 = ungraded).
	Grade float64 `json:"grade"`
	// Network names the social network the check-in came from.
	Network string `json:"network"`
}

// CheckinItemError reports one rejected item of a batched check-in push.
type CheckinItemError struct {
	// Index is the item's position in the request batch.
	Index int `json:"index"`
	// Code is the envelope failure-class enum value for this item.
	Code string `json:"code"`
	// Message is the human-readable reason.
	Message string `json:"message"`
}

// PushCheckins ingests a batch of check-ins for the authenticated user
// through one batched store write (one WAL commit-group slot for the whole
// batch). Invalid items — unknown POI, non-positive timestamp, out-of-range
// grade — are reported per item and do not fail the rest of the batch; the
// returned count covers stored items only. A store-level failure (the batch
// could not be persisted) is returned as the error.
func (p *Platform) PushCheckins(token string, items []CheckinPush) (int, []CheckinItemError, error) {
	uid, err := p.Users.Authenticate(token)
	if err != nil {
		return 0, nil, err
	}
	visits := make([]model.Visit, 0, len(items))
	var itemErrs []CheckinItemError
	for i, it := range items {
		poi, ok := p.POIs.Get(it.POIID)
		if !ok {
			itemErrs = append(itemErrs, CheckinItemError{Index: i, Code: codeNotFound,
				Message: fmt.Sprintf("core: no POI %d", it.POIID)})
			continue
		}
		if it.Time <= 0 {
			itemErrs = append(itemErrs, CheckinItemError{Index: i, Code: codeBadRequest,
				Message: fmt.Sprintf("core: non-positive timestamp %d", it.Time)})
			continue
		}
		if it.Grade < 0 || it.Grade > 5 {
			itemErrs = append(itemErrs, CheckinItemError{Index: i, Code: codeBadRequest,
				Message: fmt.Sprintf("core: grade %g out of the 0-5 range", it.Grade)})
			continue
		}
		visits = append(visits, model.Visit{
			UserID:  uid,
			Time:    it.Time,
			Grade:   it.Grade,
			Network: it.Network,
			POI:     poi,
		})
	}
	if err := p.Visits.StoreBatch(visits); err != nil {
		return 0, itemErrs, err
	}
	return len(visits), itemErrs, nil
}

// onVisitsStored is the Visits repository's settle hook, fanning one
// committed batch out to every consumer of the ingest stream: the
// materialized trending view (counter deltas), the personalized result
// cache (the visits folded into every entry whose friend set contains their
// writer), and the pub/sub matcher. It runs synchronously on the writer, so
// each stage is O(batch) with no I/O. A batch whose write failed only
// settles the cache's announcement.
func (p *Platform) onVisitsStored(visits []model.Visit, committed bool) {
	c := p.ResultCache
	if !committed {
		if c != nil {
			c.Abandon(visits)
		}
		return
	}
	p.MatView.Apply(visits)
	if c != nil {
		c.Apply(visits)
	}
	p.publishVisits(visits)
}

// publishVisits hands the committed batch to the pub/sub matcher in one
// call. The matched text is the POI name plus its catalog keywords,
// tokenized by the same textproc pipeline the subscription keywords went
// through.
func (p *Platform) publishVisits(visits []model.Visit) {
	reg := p.PubSub
	if reg == nil || reg.Len() == 0 {
		return
	}
	batch := make([]pubsub.Checkin, len(visits))
	for i := range visits {
		v := &visits[i]
		batch[i] = pubsub.Checkin{
			UserID:     v.UserID,
			POIID:      v.POI.ID,
			POIName:    v.POI.Name,
			Point:      geo.Point{Lat: v.POI.Lat, Lon: v.POI.Lon},
			TimeMillis: v.Time,
			Grade:      v.Grade,
			Network:    v.Network,
			Text:       v.POI.Name + " " + strings.Join(v.POI.Keywords, " "),
		}
	}
	reg.PublishBatch(batch)
}

// PushGPS ingests GPS fixes for the authenticated user (overriding the
// fixes' user ids with the authenticated identity). With a configured
// compression tolerance, time-ordered batches are TD-TR-compressed before
// storage; unordered batches are stored raw.
func (p *Platform) PushGPS(token string, fixes []model.GPSFix) (int, error) {
	uid, err := p.Users.Authenticate(token)
	if err != nil {
		return 0, err
	}
	for i := range fixes {
		fixes[i].UserID = uid
	}
	if tol := p.cfg.GPSCompressionToleranceMeters; tol > 0 && len(fixes) > 2 {
		trace := make([]trajectory.Fix, len(fixes))
		ordered := true
		for i, f := range fixes {
			trace[i] = trajectory.Fix{Pt: f.Point(), At: model.FromMillis(f.Time)}
			if i > 0 && trace[i].At.Before(trace[i-1].At) {
				ordered = false
				break
			}
		}
		if ordered {
			compressed, err := trajectory.CompressTrace(trace, tol)
			if err != nil {
				return 0, err
			}
			out := make([]model.GPSFix, len(compressed))
			for i, f := range compressed {
				out[i] = model.GPSFix{UserID: uid, Lat: f.Pt.Lat, Lon: f.Pt.Lon, Time: model.Millis(f.At)}
			}
			fixes = out
		}
	}
	if err := p.GPS.PushBatch(fixes); err != nil {
		return 0, err
	}
	return len(fixes), nil
}

// EventDetectionParams tune the Event Detection module.
type EventDetectionParams struct {
	// Eps and MinPts are the DBSCAN density parameters.
	Eps    float64
	MinPts int
	// Partitions is the MR-DBSCAN map-task count (defaults to the region
	// count).
	Partitions int
	// POIFilterRadius drops traces within this distance of known POIs
	// (defaults to Eps).
	POIFilterRadius float64
	// SinceMillis/UntilMillis bound the fixes considered (0 = unbounded):
	// the paper's module "processes the updates of GPS Traces Repository",
	// i.e. only traces newer than the previous run's watermark.
	SinceMillis int64
	UntilMillis int64
}

// EventDetectionResult reports one Event Detection run.
type EventDetectionResult struct {
	TracesScanned    int
	TracesClustered  int
	NewPOIs          []model.POI
	SimulatedSeconds float64
	// Watermark is the newest fix timestamp seen; pass it as the next
	// run's SinceMillis for incremental detection.
	Watermark int64
}

// DetectEvents runs the Event Detection module: scan the GPS repository,
// drop traces near known POIs, cluster the rest with MR-DBSCAN, and insert
// each dense cluster into the POI repository as a new (event) POI.
// Cancelling ctx aborts the GPS scan mid-flight and stops between the later
// stages.
func (p *Platform) DetectEvents(ctx context.Context, params EventDetectionParams) (*EventDetectionResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if params.Eps <= 0 || params.MinPts < 1 {
		return nil, fmt.Errorf("core: invalid DBSCAN parameters")
	}
	if params.Partitions == 0 {
		params.Partitions = p.cfg.Nodes * p.cfg.RegionsPerNode
	}
	if params.POIFilterRadius == 0 {
		params.POIFilterRadius = params.Eps
	}
	var pts []geo.Point
	var watermark int64
	err := p.GPS.ScanAllCtx(ctx, func(f model.GPSFix) bool {
		if f.Time > watermark {
			watermark = f.Time
		}
		if params.SinceMillis > 0 && f.Time <= params.SinceMillis {
			return true
		}
		if params.UntilMillis > 0 && f.Time > params.UntilMillis {
			return true
		}
		pts = append(pts, f.Point())
		return true
	})
	if err != nil {
		return nil, err
	}
	res := &EventDetectionResult{TracesScanned: len(pts), Watermark: watermark}
	known := p.POIs.All()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	knownPts := make([]geo.Point, len(known))
	for i, poi := range known {
		knownPts[i] = poi.Point()
	}
	keepIdx, err := dbscan.FilterNearPOIs(pts, knownPts, params.POIFilterRadius)
	if err != nil {
		return nil, err
	}
	kept := make([]geo.Point, len(keepIdx))
	for i, idx := range keepIdx {
		kept[i] = pts[idx]
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mr, err := dbscan.MRDBSCAN(kept, dbscan.Params{Eps: params.Eps, MinPts: params.MinPts}, dbscan.MROptions{
		Partitions: params.Partitions,
		Cluster:    p.Cluster,
	})
	if err != nil {
		return nil, err
	}
	res.SimulatedSeconds = mr.SimulatedSeconds
	for _, l := range mr.Labels {
		if l >= 0 {
			res.TracesClustered++
		}
	}
	for ci, center := range mr.Centroids(kept) {
		poi, err := p.POIs.Insert(model.POI{
			Name:     fmt.Sprintf("event-%d", ci+1),
			Lat:      center.Lat,
			Lon:      center.Lon,
			Keywords: []string{"event", "trending"},
		})
		if err != nil {
			return nil, err
		}
		res.NewPOIs = append(res.NewPOIs, poi)
	}
	return res, nil
}

// GenerateBlog builds (and persists) the authenticated user's semantic
// trajectory blog for the given day.
func (p *Platform) GenerateBlog(token string, day time.Time) (repos.StoredBlog, error) {
	uid, err := p.Users.Authenticate(token)
	if err != nil {
		return repos.StoredBlog{}, err
	}
	return p.generateBlogForUser(uid, day)
}

// generateBlogForUser is the internal blog pipeline shared by the API and
// the daily batch.
func (p *Platform) generateBlogForUser(uid int64, day time.Time) (repos.StoredBlog, error) {
	dayStart := time.Date(day.Year(), day.Month(), day.Day(), 0, 0, 0, 0, time.UTC)
	dayEnd := dayStart.Add(24 * time.Hour)
	var trace []trajectory.Fix
	err := p.GPS.ScanUser(uid, model.Millis(dayStart), model.Millis(dayEnd)-1, func(f model.GPSFix) bool {
		trace = append(trace, trajectory.Fix{Pt: f.Point(), At: model.FromMillis(f.Time)})
		return true
	})
	if err != nil {
		return repos.StoredBlog{}, err
	}
	stays, err := trajectory.DetectStayPoints(trace, 150, 15*time.Minute)
	if err != nil {
		return repos.StoredBlog{}, err
	}
	all := p.POIs.All()
	refs := make([]trajectory.POIRef, len(all))
	for i, poi := range all {
		refs[i] = trajectory.POIRef{ID: poi.ID, Name: poi.Name, Pt: poi.Point()}
	}
	visits, err := trajectory.MatchPOIs(stays, refs, 200)
	if err != nil {
		return repos.StoredBlog{}, err
	}
	// Enrich each matched visit with the user's own comment made at that
	// POI during the stay, if any — the "background information such as
	// check-ins, user comments" the paper folds into the semantic
	// trajectory.
	for i := range visits {
		if !visits[i].Matched {
			continue
		}
		comments, err := p.Texts.Comments(visits[i].POI.ID, uid,
			model.Millis(visits[i].Stay.Arrival), model.Millis(visits[i].Stay.Departure))
		if err != nil {
			return repos.StoredBlog{}, err
		}
		if len(comments) > 0 {
			visits[i].Comment = comments[0].Text
		}
	}
	blog := trajectory.BuildBlog(uid, dayStart, visits)
	return p.Blogs.Save(blog)
}

// PlatformStats is an operational snapshot served by /api/v1/stats.
type PlatformStats struct {
	POIs          int    `json:"pois"`
	VisitRegions  int    `json:"visit_regions"`
	Nodes         int    `json:"nodes"`
	VisitSchema   string `json:"visit_schema"`
	GPSFixes      int    `json:"gps_fixes"`
	Accounts      int    `json:"accounts"`
	ClassifierVoc int    `json:"classifier_vocabulary"`
}

// Stats assembles the operational snapshot.
func (p *Platform) Stats() (PlatformStats, error) {
	fixes, err := p.GPS.Len()
	if err != nil {
		return PlatformStats{}, err
	}
	return PlatformStats{
		POIs:          p.POIs.Len(),
		VisitRegions:  p.Visits.Table().NumRegions(),
		Nodes:         p.cfg.Nodes,
		VisitSchema:   p.cfg.VisitSchema.String(),
		GPSFixes:      fixes,
		Accounts:      len(p.Users.Accounts()),
		ClassifierVoc: p.Classifier.VocabularySize(),
	}, nil
}
