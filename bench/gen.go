package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"modissense/client"
	"modissense/internal/geo"
)

// Timeline. The collection pass covers the day before t0; the preload
// spreads uniformly over [t0, t1); check-ins pushed by a workload carry
// strictly increasing timestamps from t1 on. Every query window starts at
// t0 or later, so the oracle never needs to know what the collector stored.
var (
	t0 = time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC)
	t1 = t0.Add(preloadDays * 24 * time.Hour)
)

const (
	preloadDays = 14
	hourMs      = int64(time.Hour / time.Millisecond)
	// checkinStepMs separates consecutive pushed check-ins.
	checkinStepMs = 1000
)

// sizing is the scale of the platform under test and of the op lists. The
// full scale is what every reported number is measured at; the short scale
// exists so tests can drive all four workloads in seconds.
type sizing struct {
	// population is core.Config.NetworkPopulation; every account of the
	// three simulated networks signs in, so there are 3×population users.
	population     int
	preloadPerUser int
	collectHours   int
	subscriptions  int
	scanFriends    int // friends named by one search_scan query
	community      int // users the social workloads draw friends and writers from
	hotUsers       int
	socialFriends  int
	opScale        float64 // multiplies every workload's op count
	verifyEvery    int     // every n-th read answer is checked against the oracle
}

var (
	fullSizing = sizing{
		population: 2000, preloadPerUser: 100, collectHours: 24, subscriptions: 1000,
		scanFriends: 1000, community: 300, hotUsers: 100, socialFriends: 30,
		opScale: 1, verifyEvery: 50,
	}
	shortSizing = sizing{
		population: 200, preloadPerUser: 20, collectHours: 6, subscriptions: 100,
		scanFriends: 100, community: 80, hotUsers: 20, socialFriends: 10,
		opScale: 0.01, verifyEvery: 1,
	}
)

func (s sizing) users() int { return 3 * s.population }

var networkNames = [3]string{"facebook", "twitter", "foursquare"}

// networkOf names the network a platform user id signed in through: users
// sign in network by network, so ids are dense per network.
func (s sizing) networkOf(user int64) string {
	return networkNames[(int(user)-1)/s.population]
}

// template is the filter part of a query: where, what, and how to rank.
type template struct {
	box     *geo.Rect
	keyword string
	order   string
}

func boxAround(lat, lon, half float64) *geo.Rect {
	r := geo.NewRect(geo.Point{Lat: lat - half, Lon: lon - half}, geo.Point{Lat: lat + half, Lon: lon + half})
	return &r
}

var (
	athens       = boxAround(37.9838, 23.7275, 0.3)
	thessaloniki = boxAround(40.6401, 22.9444, 0.3)
	greece       = &geo.Rect{MinLat: 34.8, MinLon: 19.3, MaxLat: 41.8, MaxLon: 28.3}

	// scanTemplate is search_scan's: no filter, so every scanned row counts.
	scanTemplate = template{order: "hotness"}
	// socialTemplates are the four filters an interactive user picks from;
	// with hotUsers users that is at most 4×hotUsers distinct cache keys.
	socialTemplates = []template{
		{box: athens, order: "hotness"},
		{keyword: "food", order: "interest"},
		{box: thessaloniki, keyword: "restaurant", order: "hotness"},
		{box: athens, keyword: "culture", order: "interest"},
	}
	trendingBoxes = []*geo.Rect{athens, thessaloniki, greece}
	trendingHours = []int{24, 48, 72}
)

const (
	topKLimit      = 10
	poiCatalogSize = 800 // core.DefaultConfig().POIs, asserted at set-up
)

type opKind uint8

const (
	opSearch opKind = iota
	opTrending
	opPush
	numOpKinds
)

func (k opKind) String() string { return [...]string{"search", "trending", "checkin"}[k] }

// op is one request, fully built before the clock starts.
type op struct {
	kind     opKind
	user     int64 // searcher or pusher; 0 for trending, which needs no account
	tmpl     template
	search   client.SearchParams
	hours    int
	until    time.Time
	checkins []client.Checkin
}

// generator draws everything a run feeds the program from one seed.
type generator struct {
	size sizing
	// clockMs is the timestamp of the next pushed check-in.
	clockMs int64
	poiZipf *rand.Zipf
	rng     *rand.Rand
}

// stream names the independent random streams of one seed, so that changing
// how many values one consumer draws does not shift another's.
type stream int64

const (
	streamPreload stream = iota + 1
	streamSubscriptions
	streamOps
)

func newGenerator(size sizing, seed int64, s stream) *generator {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(s)))
	return &generator{
		size: size, rng: rng, clockMs: t1.UnixMilli(),
		// A mild popularity skew, so rankings have a head and few ties.
		poiZipf: rand.NewZipf(rng, 1.1, 4, uint64(poiCatalogSize-1)),
	}
}

func (g *generator) user() int64 { return int64(g.rng.Intn(g.size.users()) + 1) }

func (g *generator) checkin(user int64, timeMs int64) client.Checkin {
	return client.Checkin{
		POIID: int64(g.poiZipf.Uint64() + 1),
		Time:  timeMs,
		// Whole grades keep every grade sum exact in floating point, so the
		// oracle's mean equals the program's bit for bit in any order.
		Grade:   float64(g.rng.Intn(5) + 1),
		Network: g.size.networkOf(user),
	}
}

// pushed returns n check-ins of one user at the generator's advancing clock.
func (g *generator) pushed(user int64, n int) []client.Checkin {
	out := make([]client.Checkin, n)
	for i := range out {
		out[i] = g.checkin(user, g.clockMs)
		g.clockMs += checkinStepMs
	}
	return out
}

// preload returns one user's historical check-ins, uniform over [t0, t1).
func (g *generator) preload(user int64) []client.Checkin {
	out := make([]client.Checkin, g.size.preloadPerUser)
	span := t1.UnixMilli() - t0.UnixMilli()
	for i := range out {
		out[i] = g.checkin(user, t0.UnixMilli()+g.rng.Int63n(span))
	}
	return out
}

// distinctUsers draws n distinct users uniformly.
func (g *generator) distinctUsers(n int) []int64 {
	total := g.size.users()
	if n > total {
		n = total
	}
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		if u := g.user(); !seen[u] {
			seen[u] = true
			out = append(out, u)
		}
	}
	return out
}

func searchOp(user int64, friends []int64, t template) op {
	sp := client.SearchParams{
		Keyword: t.keyword, Friends: friends, From: t0, OrderBy: t.order, Limit: topKLimit,
	}
	if t.box != nil {
		sp.MinLat, sp.MinLon, sp.MaxLat, sp.MaxLon = t.box.MinLat, t.box.MinLon, t.box.MaxLat, t.box.MaxLon
	}
	return op{kind: opSearch, user: user, tmpl: t, search: sp}
}

// trendingOp is a friendless trending query over the hours before the end
// of the hour the generator's clock is in: hour-aligned, so the view's
// bucket quantisation is exact and the oracle can recompute it.
func (g *generator) trendingOp() op {
	// The last millisecond before the next check-in: everything pushed so
	// far, or just the preload when nothing has been.
	lastMs := g.clockMs - 1
	return op{
		kind:  opTrending,
		tmpl:  template{box: trendingBoxes[g.rng.Intn(len(trendingBoxes))], order: "hotness"},
		hours: trendingHours[g.rng.Intn(len(trendingHours))],
		until: time.UnixMilli((lastMs/hourMs + 1) * hourMs).UTC(),
	}
}

// social is the fixed cast of the interactive workloads: a community, the
// hot users inside it, and each hot user's friend list.
type social struct {
	community []int64
	hot       []int64
	friends   [][]int64
	zipf      *rand.Zipf
}

func (g *generator) social() *social {
	s := &social{community: g.distinctUsers(g.size.community)}
	s.hot = s.community[:g.size.hotUsers]
	for _, u := range s.hot {
		var fl []int64
		for _, i := range g.rng.Perm(len(s.community)) {
			if f := s.community[i]; f != u && len(fl) < g.size.socialFriends {
				fl = append(fl, f)
			}
		}
		s.friends = append(s.friends, fl)
	}
	s.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(s.hot)-1))
	return s
}

func (g *generator) socialSearch(s *social) op {
	i := int(s.zipf.Uint64())
	return searchOp(s.hot[i], s.friends[i], socialTemplates[g.rng.Intn(len(socialTemplates))])
}

// workload is one traffic mix. opsPerSecond is frozen: it was sized once so
// that the measured phase lasts about as long as asked on the 2-vCPU
// sandbox, and the work a run does is opsPerSecond × seconds, never "as
// much as fits".
type workload struct {
	name         string
	why          string
	opsPerSecond float64
	primary      opKind
	gen          func(g *generator, n int) []op
}

const (
	ingestBatch = 50
	mixedBatch  = 5
)

var workloads = []workload{
	{
		name: "search_scan", primary: opSearch, opsPerSecond: 30,
		why: "each search names 1000 fresh friends: no cache can help, a sixth of a table larger than the block cache is read (the paper's Fig. 2 regime)",
		gen: func(g *generator, n int) []op {
			ops := make([]op, n)
			for i := range ops {
				ops[i] = searchOp(g.user(), g.distinctUsers(g.size.scanFriends), scanTemplate)
			}
			return ops
		},
	},
	{
		name: "search_social", primary: opSearch, opsPerSecond: 6000,
		why: "100 hot users repeat 4 filters over fixed 30-friend lists plus 10% view-served trending: everything fits the caches, the store is idle",
		gen: func(g *generator, n int) []op {
			s := g.social()
			ops := make([]op, n)
			for i := range ops {
				if g.rng.Intn(10) == 0 {
					ops[i] = g.trendingOp()
				} else {
					ops[i] = g.socialSearch(s)
				}
			}
			return ops
		},
	},
	{
		name: "ingest", primary: opPush, opsPerSecond: 700,
		why: "batches of 50 check-ins by uniform users against 1000 subscriptions: the write path alone, through several flushes and compactions per region",
		gen: func(g *generator, n int) []op {
			ops := make([]op, n)
			for i := range ops {
				u := g.user()
				ops[i] = op{kind: opPush, user: u, checkins: g.pushed(u, ingestBatch)}
			}
			return ops
		},
	},
	{
		name: "mixed", primary: opSearch, opsPerSecond: 1000,
		why: "70% social searches, 10% trending, 20% pushes by the searched friends: writes invalidate cached rankings, reads merge memtable rows with segments",
		gen: func(g *generator, n int) []op {
			s := g.social()
			ops := make([]op, n)
			for i := range ops {
				switch r := g.rng.Intn(10); {
				case r < 7:
					ops[i] = g.socialSearch(s)
				case r < 8:
					ops[i] = g.trendingOp()
				default:
					u := s.community[g.rng.Intn(len(s.community))]
					ops[i] = op{kind: opPush, user: u, checkins: g.pushed(u, mixedBatch)}
				}
			}
			return ops
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Phases of a run, in blocks of equal op count.
const (
	measuredBlocks = 40
	// warmupShare of the measured op count runs untimed first, as the last
	// step of set-up.
	warmupShare = 0.05
)

// opCounts returns the untimed warm-up and the measured op counts of a run.
// The measured count is a multiple of measuredBlocks so that every block
// does the same amount of work.
func (w *workload) opCounts(size sizing, seconds int, traced bool) (warmup, measured int) {
	n := w.opsPerSecond * float64(seconds) * size.opScale
	if traced {
		n /= 2
	}
	perBlock := int(n / measuredBlocks)
	if perBlock < 1 {
		perBlock = 1
	}
	measured = perBlock * measuredBlocks
	warmup = int(float64(measured) * warmupShare)
	if warmup < 1 {
		warmup = 1
	}
	return warmup, measured
}

// hashOps fingerprints an op list: the same seed must give the same list.
func hashOps(ops []op) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for i := range ops {
		o := &ops[i]
		put(int64(o.kind))
		put(o.user)
		h.Write([]byte(o.tmpl.keyword + "|" + o.tmpl.order))
		if o.tmpl.box != nil {
			put(int64(o.tmpl.box.MinLat * 1e6))
			put(int64(o.tmpl.box.MinLon * 1e6))
		}
		for _, f := range o.search.Friends {
			put(f)
		}
		put(int64(o.hours))
		if o.kind == opTrending {
			put(o.until.UnixMilli())
		}
		for _, c := range o.checkins {
			put(c.POIID)
			put(c.Time)
			put(int64(c.Grade))
		}
	}
	return h.Sum64()
}
