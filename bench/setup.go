package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"

	"modissense/client"
	"modissense/internal/core"
	"modissense/internal/model"
	"modissense/internal/query"
)

// platformConfig is the platform under test: core.DefaultConfig() plus
// exactly what cmd/modissense-server sets when started with no flags
// (trending view on with 1 h buckets and a 336 h horizon, a 32 MiB result
// cache, WALSync "os", the replicated schema, 4 nodes × 4 regions, 800 POIs,
// 2000 accounts per network) plus three documented server flags:
//
//	-wal-dir <dir>                  the visits table is durable, as deployed
//	-memtable-flush-bytes 524288    the 8 MiB default × 16 regions would keep
//	                                the whole table in memtables and no block
//	                                would ever be decoded
//	-block-cache-mb 64              the default size, but owned by this
//	                                platform instead of the process, so a
//	                                platform that set-up discards takes its
//	                                blocks with it
//
// The flush policy never varies: WALSync "os", 512 KiB memtables, the default
// compaction trigger, no compaction rate limit.
func platformConfig(size sizing, walDir string) core.Config {
	cfg := core.DefaultConfig()
	cfg.NetworkPopulation = size.population
	cfg.HotInBucket = time.Hour
	cfg.HotInHorizon = 336 * time.Hour
	cfg.ResultCacheMB = 32
	cfg.WALSync = "os"
	cfg.WALDir = walDir
	cfg.MemtableFlushBytes = 512 << 10
	cfg.BlockCacheMB = 64
	return cfg
}

// inproc is an http.RoundTripper that calls the platform's handler on the
// caller's goroutine. Half of a sub-millisecond request over loopback TCP is
// the kernel's socket and wake-up time, which is neither the program's nor
// repeatable; this keeps the client's encoding, the router, the middleware
// and the JSON on the path and leaves the socket out. A handler panic becomes
// a 500, as net/http's server would make it.
type inproc struct {
	h http.Handler
	// respBytes and responses count the response bodies handed back.
	respBytes, responses int64
}

type responseBuffer struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (w *responseBuffer) Header() http.Header         { return w.header }
func (w *responseBuffer) WriteHeader(status int)      { w.status = status }
func (w *responseBuffer) Write(b []byte) (int, error) { return w.body.Write(b) }

func (t *inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	w := t.serve(req)
	if req.Body != nil {
		req.Body.Close()
	}
	t.respBytes += int64(w.body.Len())
	t.responses++
	return &http.Response{
		StatusCode: w.status, Status: http.StatusText(w.status),
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: w.header, Body: io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()), Request: req,
	}, nil
}

func (t *inproc) serve(req *http.Request) (w *responseBuffer) {
	w = &responseBuffer{header: http.Header{}, status: http.StatusOK}
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: handler panic: %v\n", r)
			w = &responseBuffer{header: http.Header{}, status: http.StatusInternalServerError}
		}
	}()
	t.h.ServeHTTP(w, req)
	return w
}

// env is one booted, loaded and warmed platform with everything the harness
// needs to drive and check it.
type env struct {
	size sizing
	cfg  core.Config
	p    *core.Platform
	tr   *inproc
	// clients[u] is user u's signed-in typed client; tokens[u] its token.
	clients []*client.Client
	tokens  []string
	oracle  *oracle
	ops     []op // the run's whole op list; ops[:warmup] already ran
	warmup  int
	setup   setupTimes
}

// setupTimes are the raw spans of one set-up, in seconds, and the reference
// passes taken along it.
type setupTimes struct {
	boot, collect, preload, total float64
	refMs                         [5]float64
}

// normalisedTotal is the set-up time at nominal host speed.
func (s *setupTimes) normalisedTotal() float64 {
	return s.total / hostFactor(median(s.refMs[:]))
}

const baseURL = "http://modissense.inproc"

// setUp boots the platform under test over walDir and brings it to the
// state the measured phase starts from: every account signed in, one
// collection pass run, the preload pushed, the standing subscriptions
// registered, background maintenance settled, and the first warmup ops of
// the op list executed untimed. Everything it feeds the platform comes from
// the seed.
func setUp(w *workload, size sizing, seed int64, seconds int, traced bool, walDir string, ref *refKernel) (*env, error) {
	start := time.Now()
	e := &env{size: size, cfg: platformConfig(size, walDir)}
	since := func(t time.Time) float64 { return time.Since(t).Seconds() }
	e.setup.refMs[0] = ref.pass()

	t := time.Now()
	p, err := core.New(e.cfg)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	e.p = p
	if got := len(p.Catalog()); got != poiCatalogSize {
		return nil, fmt.Errorf("POI catalog has %d entries, the generators assume %d", got, poiCatalogSize)
	}
	e.tr = &inproc{h: core.NewHandler(p)}
	hc := &http.Client{Transport: e.tr}
	e.oracle = newOracle(p.Catalog(), size.users())
	e.setup.boot = since(t)
	e.setup.refMs[1] = ref.pass()

	e.clients = make([]*client.Client, size.users()+1)
	e.tokens = make([]string, size.users()+1)
	for n, network := range networkNames {
		for i := 1; i <= size.population; i++ {
			c, err := client.New(baseURL, hc)
			if err != nil {
				return nil, err
			}
			// One client, one attempt: an overload answer is a failure to
			// report, not something to retry into a better latency.
			c.SetRetryPolicy(client.RetryPolicy{})
			s, err := c.SignIn(network, fmt.Sprintf("%s:%d", network, i))
			if err != nil {
				return nil, fmt.Errorf("sign in %s:%d: %w", network, i, err)
			}
			if want := int64(n*size.population + i); s.UserID != want {
				return nil, fmt.Errorf("sign in %s:%d: user id %d, want %d", network, i, s.UserID, want)
			}
			e.clients[s.UserID], e.tokens[s.UserID] = c, s.Token
		}
	}

	// The paper's collection path: connector → Naive Bayes grade → sink. It
	// ends an hour before t0, so no query window sees what it stored.
	t = time.Now()
	collectEnd := t0.Add(-time.Hour)
	if _, err := p.Collect(collectEnd.Add(-time.Duration(size.collectHours)*time.Hour), collectEnd); err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	e.setup.collect = since(t)
	e.setup.refMs[2] = ref.pass()

	t = time.Now()
	pre := newGenerator(size, seed, streamPreload)
	items := make([]core.CheckinPush, size.preloadPerUser)
	for u := int64(1); u <= int64(size.users()); u++ {
		batch := pre.preload(u)
		for i, c := range batch {
			items[i] = core.CheckinPush{POIID: c.POIID, Time: c.Time, Grade: c.Grade, Network: c.Network}
		}
		stored, itemErrs, err := p.PushCheckins(e.tokens[u], items)
		if err != nil || stored != len(batch) || len(itemErrs) != 0 {
			return nil, fmt.Errorf("preload user %d: stored %d of %d, %d item errors, err %v", u, stored, len(batch), len(itemErrs), err)
		}
		e.oracle.record(u, batch)
	}
	e.setup.preload = since(t)
	e.setup.refMs[3] = ref.pass()

	for _, spec := range standingSubscriptions(size) {
		if _, err := e.clients[spec.user].CreateSubscription(spec.spec); err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	if err := p.Visits.Table().WaitMaintenance(); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}

	warmup, measured := w.opCounts(size, seconds, traced)
	e.ops = w.gen(newGenerator(size, seed, streamOps), warmup+measured)
	e.warmup = warmup
	for i := 0; i < warmup; i++ {
		if r := e.do(&e.ops[i]); r.err != nil {
			return nil, fmt.Errorf("warm-up op %d (%s): %w", i, e.ops[i].kind, r.err)
		}
	}
	runtime.GC()
	e.setup.total = since(start)
	e.setup.refMs[4] = ref.pass()
	return e, nil
}

// subscriptionSpec is one standing query and the user registering it.
type subscriptionSpec struct {
	user int64
	spec client.SubscriptionSpec
}

// standingSubscriptions are the standing queries every run registers:
// city-sized boxes around random catalog-area points, a third of them with a
// keyword. Like the POI catalog they are part of the platform under test and
// do not change with the run's seed: how many boxes happen to cover the few
// most popular POIs decides how many matches a check-in produces, and drawing
// them anew per seed moved ingest's allocation per batch by ±5 %.
func standingSubscriptions(size sizing) []subscriptionSpec {
	g := newGenerator(size, 0, streamSubscriptions)
	keywords := []string{"food", "culture", "nightlife", "coffee"}
	out := make([]subscriptionSpec, g.size.subscriptions)
	for i := range out {
		centre := trendingBoxes[g.rng.Intn(len(trendingBoxes))]
		lat := centre.MinLat + g.rng.Float64()*(centre.MaxLat-centre.MinLat)
		lon := centre.MinLon + g.rng.Float64()*(centre.MaxLon-centre.MinLon)
		box := boxAround(lat, lon, 0.02+0.1*g.rng.Float64())
		s := client.SubscriptionSpec{
			MinLat: box.MinLat, MinLon: box.MinLon, MaxLat: box.MaxLat, MaxLon: box.MaxLon,
			TTL: time.Hour,
		}
		if g.rng.Intn(3) == 0 {
			s.Keywords = []string{keywords[g.rng.Intn(len(keywords))]}
		}
		out[i] = subscriptionSpec{user: g.user(), spec: s}
	}
	return out
}

// result is what one executed op left behind for the checks that run after
// the clock stops.
type result struct {
	err error
	// pois is a read's ranking; acked is how many check-ins the platform
	// had acknowledged when the read ran, which is the prefix of the
	// oracle's record the ranking must agree with.
	pois  []ranked
	acked int
	// simSeconds is the simulated-cluster latency the answer carried.
	simSeconds float64
}

// readResult is what a search or trending answer leaves behind.
func (e *env) readResult(res *query.Result, err error) result {
	if err != nil {
		return result{err: err}
	}
	return result{pois: rankedOf(res.POIs), acked: e.oracle.len(), simSeconds: res.LatencySeconds}
}

// pushResult checks a push's answer and records what it acknowledged.
func (e *env) pushResult(o *op, stored, itemErrs int, err error) result {
	if err != nil {
		return result{err: err}
	}
	if stored != len(o.checkins) || itemErrs != 0 {
		return result{err: fmt.Errorf("stored %d of %d check-ins, %d item errors", stored, len(o.checkins), itemErrs)}
	}
	e.oracle.record(o.user, o.checkins)
	return result{}
}

// do sends one op through its user's typed client.
func (e *env) do(o *op) result {
	switch o.kind {
	case opSearch:
		return e.readResult(e.clients[o.user].Search(o.search))
	case opTrending:
		b := o.tmpl.box
		// Trending needs no account; any client will do.
		return e.readResult(e.clients[1].Trending(b.MinLat, b.MinLon, b.MaxLat, b.MaxLon, o.hours, topKLimit, o.until))
	default:
		res, err := e.clients[o.user].PushCheckins(o.checkins)
		return e.pushResult(o, res.Stored, len(res.Errors), err)
	}
}

// close drains and closes the platform and removes its WAL.
func (e *env) close() error {
	err := e.p.Close()
	if rmErr := os.RemoveAll(e.cfg.WALDir); err == nil {
		err = rmErr
	}
	return err
}

// newWALDir makes a fresh WAL directory under the output directory, which
// is inside the checkout.
func newWALDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "wal-")
}

// rebootCheck is ingest's durability check: close the platform, boot a new
// one over the same WAL directory and compare every visit it replays, from
// t0 on, with the oracle's record of what was acknowledged.
func (e *env) rebootCheck() error {
	if err := e.p.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	p, err := core.New(e.cfg)
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	e.p = p
	var n int
	var sum uint64
	err = p.Visits.ScanAll(func(v model.Visit) bool {
		if v.Time >= t0.UnixMilli() {
			n++
			sum += ackHash(v.UserID, v.POI.ID, v.Time, v.Grade)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("scan after reboot: %w", err)
	}
	if wantN, wantSum := e.oracle.len(), e.oracle.checksum(); n != wantN || sum != wantSum {
		return fmt.Errorf("after reboot the table holds %d visits (checksum %x), %d were acknowledged (checksum %x)", n, sum, wantN, wantSum)
	}
	return nil
}
