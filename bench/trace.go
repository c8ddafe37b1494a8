package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"modissense/client"
	"modissense/internal/core"
	"modissense/internal/exec"
	"modissense/internal/geo"
	"modissense/internal/kvstore"
	"modissense/internal/matview"
	"modissense/internal/model"
	"modissense/internal/pubsub"
	"modissense/internal/query"
	"modissense/internal/repos"
)

// The traced run attributes a request's time to layers without touching the
// program: spans are recorded by the harness around its own calls into each
// layer. Calling a layer a second time to time it would measure something
// else — a repeated search hits the cache the first call filled, a repeated
// push is applied twice — so every op runs once, entering the stack at a
// depth that rotates with its index:
//
//	0 client         the typed client, as in the untraced run
//	1 core.http      the handler's ServeHTTP with a body encoded beforehand
//	2 core.platform  Platform.Search / Trending / PushCheckins
//	3 leaf           query.Engine.Run / Trending, or VisitsRepo.StoreBatch
//
// The platform's state evolves exactly as in the untraced run. A layer's
// self time is the mean duration at its depth minus the mean one level
// down, per op kind; the self times add up to the mean at depth 0 by
// construction, which the run checks.
const traceDepths = 4

var leafLayer = [numOpKinds]string{"query.engine", "query.engine", "repos.storebatch"}

func layerName(kind opKind, depth int) string {
	if depth == traceDepths-1 {
		return leafLayer[kind]
	}
	return [...]string{"client", "core.http", "core.platform"}[depth]
}

// probeEvery: after every ninth op the harness also times, on its own, the
// calls a request makes further down. Nine is coprime to the four depths, so
// the op that follows a probe, and runs on the caches it left, enters at
// every depth equally often.
const probeEvery = 9

// span is one timed call. Spans of one request share Op; a probe's parent is
// the layer span of the request it was taken after.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Kind    string `json:"kind"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// per is how many units of work the span covered (rows, check-ins,
	// calls) when its metric is per unit.
	per  int
	kind opKind
}

type tracer struct {
	e      *env
	start  time.Time
	spans  []span
	depths []int8 // entry depth of op i
	share  counters
	ctx    context.Context

	// What the probes run against: a twin of the visits repository with no
	// ingest hook, and a view and a registry of the harness's own, each fed
	// every probed batch once.
	twin *repos.VisitsRepo
	view *matview.HotInView
	reg  *pubsub.Registry
	raws [][]byte
	sink int64
}

// farFuture is the window end the search handler substitutes when a request
// names none; deeper entries must use the same value or they would miss the
// cache keys the shallower ones filled.
var farFuture = time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)

// newTracer prepares to trace ops ops of e; twinWAL is where the twin
// repository keeps its log.
func newTracer(e *env, twinWAL string, ops int) (*tracer, error) {
	t := &tracer{
		e: e, share: counters{}, ctx: context.Background(), start: time.Now(),
		depths: make([]int8, ops),
		// One span per op and up to four per probe.
		spans: make([]span, 0, ops+4*(ops/probeEvery+1)),
	}
	opts := kvstore.DefaultStoreOptions()
	opts.Seed = e.cfg.Seed
	opts.FlushThresholdBytes = e.cfg.MemtableFlushBytes
	opts.BlockCache = kvstore.NewBlockCache(8 << 20)
	var err error
	t.twin, err = repos.NewDurableVisitsRepo(e.cfg.VisitSchema, int64(e.cfg.NetworkPopulation)*4,
		e.cfg.Nodes*e.cfg.RegionsPerNode, e.cfg.Nodes, opts, filepath.Join(twinWAL, "twin.wal"))
	if err != nil {
		return nil, fmt.Errorf("twin repository: %w", err)
	}
	t.view, err = matview.NewHotInView(matview.ViewOptions{
		BucketMillis: e.cfg.HotInBucket.Milliseconds(), HorizonMillis: e.cfg.HotInHorizon.Milliseconds(),
	})
	if err != nil {
		return nil, err
	}
	t.reg = pubsub.NewRegistry(pubsub.Options{})
	for _, s := range standingSubscriptions(e.size) {
		box := geo.Rect{MinLat: s.spec.MinLat, MinLon: s.spec.MinLon, MaxLat: s.spec.MaxLat, MaxLon: s.spec.MaxLon}
		if _, err := t.reg.Add(s.user, box, s.spec.Keywords, s.spec.TTL); err != nil {
			return nil, fmt.Errorf("twin registry: %w", err)
		}
	}
	return t, nil
}

func (t *tracer) close() error {
	if err := t.twin.Table().WaitMaintenance(); err != nil {
		t.twin.Table().Close()
		return err
	}
	return t.twin.Table().Close()
}

// record appends a span that ended now.
func (t *tracer) record(name string, i int, kind opKind, parent string, started time.Time, took time.Duration, per int) {
	s := started.Sub(t.start).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Op: i, Kind: kind.String(), Parent: parent, StartNs: s, EndNs: s + took.Nanoseconds(), per: per, kind: kind})
}

// exec runs op i once, entering at depth i mod 4.
func (t *tracer) exec(i int, o *op) (result, time.Duration) {
	depth := i % traceDepths
	var res result
	var started time.Time
	var took time.Duration
	switch depth {
	case 0:
		started = time.Now()
		res = t.e.do(o)
		took = time.Since(started)
	case 1:
		res, started, took = t.viaHTTP(o)
	case 2:
		res, started, took = t.viaPlatform(o)
	default:
		res, started, took = t.viaLeaf(o)
	}
	t.depths[i] = int8(depth)
	layer := layerName(o.kind, depth)
	t.record(layer, i, o.kind, "", started, took, 1)
	if i%probeEvery == 0 {
		before := readCounters()
		t.probe(i, o, layer)
		t.share.addForeground(readCounters().minus(before))
	}
	return res, took
}

// httpRequest builds the request the typed client would send for o.
func (t *tracer) httpRequest(o *op) (*http.Request, error) {
	token := ""
	if o.user != 0 {
		token = t.e.tokens[o.user]
	}
	switch o.kind {
	case opSearch:
		p := o.search
		body, err := json.Marshal(map[string]interface{}{
			"token": token, "min_lat": p.MinLat, "min_lon": p.MinLon, "max_lat": p.MaxLat, "max_lon": p.MaxLon,
			"keyword": p.Keyword, "friends": p.Friends, "order_by": p.OrderBy, "limit": p.Limit,
			"from": p.From.Format(time.RFC3339),
		})
		if err != nil {
			return nil, err
		}
		return jsonPost("/api/v1/search", body)
	case opTrending:
		b, v := o.tmpl.box, url.Values{}
		for key, f := range map[string]float64{"min_lat": b.MinLat, "min_lon": b.MinLon, "max_lat": b.MaxLat, "max_lon": b.MaxLon} {
			v.Set(key, strconv.FormatFloat(f, 'f', -1, 64))
		}
		v.Set("hours", strconv.Itoa(o.hours))
		v.Set("limit", strconv.Itoa(topKLimit))
		v.Set("until", o.until.Format(time.RFC3339))
		return http.NewRequest(http.MethodGet, baseURL+"/api/v1/trending?"+v.Encode(), nil)
	default:
		body, err := json.Marshal(map[string]interface{}{"token": token, "checkins": o.checkins})
		if err != nil {
			return nil, err
		}
		return jsonPost("/api/v1/checkins", body)
	}
}

func jsonPost(path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, baseURL+path, bytes.NewReader(body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, err
}

// viaHTTP enters at the handler.
func (t *tracer) viaHTTP(o *op) (result, time.Time, time.Duration) {
	req, err := t.httpRequest(o)
	if err != nil {
		return result{err: err}, time.Now(), 0
	}
	started := time.Now()
	w := t.e.tr.serve(req)
	took := time.Since(started)
	t.e.tr.respBytes += int64(w.body.Len())
	t.e.tr.responses++
	if w.status/100 != 2 {
		body, _ := io.ReadAll(&w.body)
		return result{err: fmt.Errorf("status %d: %s", w.status, strings.TrimSpace(string(body)))}, started, took
	}
	if o.kind == opPush {
		var out client.BatchResult
		if err := json.Unmarshal(w.body.Bytes(), &out); err != nil {
			return result{err: err}, started, took
		}
		return t.e.pushResult(o, out.Stored, len(out.Errors), nil), started, took
	}
	var out query.Result
	if err := json.Unmarshal(w.body.Bytes(), &out); err != nil {
		return result{err: err}, started, took
	}
	return t.e.readResult(&out, nil), started, took
}

func trendingWindow(o *op) (from, until time.Time) {
	return o.until.Add(-time.Duration(o.hours) * time.Hour), o.until
}

// viaPlatform enters at the Platform methods the handlers call.
func (t *tracer) viaPlatform(o *op) (result, time.Time, time.Duration) {
	p := t.e.p
	switch o.kind {
	case opSearch:
		req := core.SearchRequest{
			Token: t.e.tokens[o.user], BBox: o.tmpl.box, Keyword: o.tmpl.keyword, Friends: o.search.Friends,
			From: t0, To: farFuture, OrderBy: query.OrderBy(o.tmpl.order), Limit: topKLimit,
		}
		started := time.Now()
		res, err := p.Search(t.ctx, req)
		return t.e.readResult(res, err), started, time.Since(started)
	case opTrending:
		from, until := trendingWindow(o)
		started := time.Now()
		res, err := p.Trending(t.ctx, o.tmpl.box, nil, from, until, topKLimit)
		return t.e.readResult(res, err), started, time.Since(started)
	default:
		items := make([]core.CheckinPush, len(o.checkins))
		for i, c := range o.checkins {
			items[i] = core.CheckinPush{POIID: c.POIID, Time: c.Time, Grade: c.Grade, Network: c.Network}
		}
		started := time.Now()
		stored, itemErrs, err := p.PushCheckins(t.e.tokens[o.user], items)
		took := time.Since(started)
		return t.e.pushResult(o, stored, len(itemErrs), err), started, took
	}
}

// visits resolves a push into the rows the platform would store.
func (t *tracer) visits(o *op) ([]model.Visit, error) {
	out := make([]model.Visit, len(o.checkins))
	for i, c := range o.checkins {
		poi, ok := t.e.p.POIs.Get(c.POIID)
		if !ok {
			return nil, fmt.Errorf("no POI %d", c.POIID)
		}
		out[i] = model.Visit{UserID: o.user, Time: c.Time, Grade: c.Grade, Network: c.Network, POI: poi}
	}
	return out, nil
}

// viaLeaf enters at the query engine or the visits repository.
func (t *tracer) viaLeaf(o *op) (result, time.Time, time.Duration) {
	p := t.e.p
	switch o.kind {
	case opSearch:
		spec := query.Spec{
			BBox: o.tmpl.box, Keyword: o.tmpl.keyword, FriendIDs: o.search.Friends,
			FromMillis: t0.UnixMilli(), ToMillis: farFuture.UnixMilli(),
			OrderBy: query.OrderBy(o.tmpl.order), Limit: topKLimit,
		}
		started := time.Now()
		res, err := p.Query.Run(t.ctx, spec)
		return t.e.readResult(res, err), started, time.Since(started)
	case opTrending:
		from, until := trendingWindow(o)
		spec := query.Spec{BBox: o.tmpl.box, FromMillis: from.UnixMilli(), ToMillis: until.UnixMilli(), Limit: topKLimit}
		started := time.Now()
		res, err := p.Query.Trending(t.ctx, spec)
		return t.e.readResult(res, err), started, time.Since(started)
	default:
		visits, err := t.visits(o)
		if err != nil {
			return result{err: err}, time.Now(), 0
		}
		started := time.Now()
		err = p.Visits.StoreBatch(visits)
		took := time.Since(started)
		return t.e.pushResult(o, len(visits), 0, err), started, took
	}
}

// timed records fn as a probe span under parent.
func (t *tracer) timed(name string, i int, o *op, parent string, per int, fn func()) {
	started := time.Now()
	fn()
	t.record(name, i, o.kind, parent, started, time.Since(started), per)
}

// probe times, stand-alone and read-only or against the harness's own
// twins, the calls an op of this kind makes below the leaf.
func (t *tracer) probe(i int, o *op, parent string) {
	p := t.e.p
	switch o.kind {
	case opSearch:
		friends := append([]int64(nil), o.search.Friends...)
		sort.Slice(friends, func(a, b int) bool { return friends[a] < friends[b] })
		ranges := make([]kvstore.ScanRange, len(friends))
		for j, f := range friends {
			ranges[j].Start, ranges[j].Stop = repos.VisitScanBounds(f, t0.UnixMilli(), farFuture.UnixMilli())
		}
		t.raws = t.raws[:0]
		t.timed("kvstore.multiscan", i, o, parent, 1, func() {
			_ = p.Visits.Table().MultiScanCtx(t.ctx, ranges, 0, func(row kvstore.RowResult) bool {
				if raw, ok := row.Get(repos.VisitQualifier); ok {
					t.raws = append(t.raws, raw)
				}
				return true
			})
		})
		t.timed("repos.decode", i, o, parent, len(t.raws), func() {
			for _, raw := range t.raws {
				if v, err := repos.DecodeVisit(t.e.cfg.VisitSchema, raw); err == nil {
					t.sink += v.Time
				}
			}
		})
		tasks := make([]exec.Task, p.Visits.Table().NumRegions())
		for j := range tasks {
			tasks[j] = func(context.Context) (interface{}, error) { return nil, nil }
		}
		t.timed("exec.gather", i, o, parent, 1, func() { _, _ = exec.Default().Gather(t.ctx, tasks) })
		const authCalls = 64
		token := t.e.tokens[o.user]
		t.timed("social.auth", i, o, parent, authCalls, func() {
			for j := 0; j < authCalls; j++ {
				if uid, err := p.Users.Authenticate(token); err == nil {
					t.sink += uid
				}
			}
		})
	case opTrending:
		from, until := trendingWindow(o)
		spec := matview.TopKSpec{BBox: o.tmpl.box, FromMillis: from.UnixMilli(), ToMillis: until.UnixMilli(), Limit: topKLimit}
		t.timed("matview.topk", i, o, parent, 1, func() {
			aggs, _ := p.MatView.TopK(spec)
			t.sink += int64(len(aggs))
		})
	default:
		visits, err := t.visits(o)
		if err != nil {
			return
		}
		t.timed("repos.encode", i, o, parent, len(visits), func() {
			for j := range visits {
				t.sink += int64(len(model.EncodeVisitBinary(&visits[j])))
			}
		})
		t.timed("repos.storebatch_bare", i, o, parent, len(visits), func() { _ = t.twin.StoreBatch(visits) })
		t.timed("matview.apply", i, o, parent, len(visits), func() { t.view.Apply(visits) })
		t.timed("pubsub.publish", i, o, parent, len(visits), func() {
			for _, v := range visits {
				t.sink += int64(t.reg.Publish(pubsub.Checkin{
					UserID: v.UserID, POIID: v.POI.ID, POIName: v.POI.Name,
					Point: geo.Point{Lat: v.POI.Lat, Lon: v.POI.Lon}, TimeMillis: v.Time, Grade: v.Grade,
					Network: v.Network, Text: v.POI.Name + " " + strings.Join(v.POI.Keywords, " "),
				}))
			}
		})
	}
}

// layerTable is what the spans add up to, at nominal host speed.
type layerTable struct {
	// depthMeanMs[k][d] is the mean duration of kind k's ops that entered
	// at depth d; depthN the sample counts.
	depthMeanMs [numOpKinds][traceDepths]float64
	depthN      [numOpKinds][traceDepths]int
	// depth0Ms[k] are kind k's client-entry latencies, raw0Ms the same as
	// the clock read them.
	depth0Ms, raw0Ms [numOpKinds][]float64
	// probeMs[name] is the mean duration of a probe, probePerMs per unit.
	probeMs, probePerMs map[string]float64
}

// selfTimes derives each layer's self time from the depth means: the mean
// at its depth minus the mean one level down. ok is false when some depth
// saw no op of the kind.
func selfTimes(depthMeanMs [traceDepths]float64, depthN [traceDepths]int) (self [traceDepths]float64, ok bool) {
	for _, n := range depthN {
		if n == 0 {
			return self, false
		}
	}
	for d := 0; d < traceDepths-1; d++ {
		self[d] = depthMeanMs[d] - depthMeanMs[d+1]
	}
	self[traceDepths-1] = depthMeanMs[traceDepths-1]
	return self, true
}

// table normalises every span by the speed factor of the block its op ran
// in and aggregates.
func (t *tracer) table(ph *phase) *layerTable {
	lt := &layerTable{probeMs: map[string]float64{}, probePerMs: map[string]float64{}}
	perBlock := ph.ops / measuredBlocks
	var sums [numOpKinds][traceDepths]float64
	probeSum, probePerSum, probeN := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		b := s.Op / perBlock
		raw := float64(s.EndNs-s.StartNs) / 1e6
		ms := raw / speedFactor(ph.refMs[b], ph.refMs[b+1])
		if s.Parent != "" {
			probeSum[s.Name] += ms
			probeN[s.Name]++
			if s.per > 0 {
				probePerSum[s.Name] += ms / float64(s.per)
			}
			continue
		}
		k, d := s.kind, int(t.depths[s.Op])
		sums[k][d] += ms
		lt.depthN[k][d]++
		if d == 0 {
			lt.depth0Ms[k] = append(lt.depth0Ms[k], ms)
			lt.raw0Ms[k] = append(lt.raw0Ms[k], raw)
		}
	}
	for k := range sums {
		for d := range sums[k] {
			lt.depthMeanMs[k][d] = ratio(sums[k][d], float64(lt.depthN[k][d]))
		}
	}
	for name, n := range probeN {
		lt.probeMs[name] = probeSum[name] / n
		lt.probePerMs[name] = probePerSum[name] / n
	}
	return lt
}

// print writes the layer table and checks that the self times add up.
func (lt *layerTable) print(w io.Writer) error {
	fmt.Fprintln(w, "layer self times (ms at nominal host speed; mean at entry depth minus mean one level down):")
	for k := opKind(0); k < numOpKinds; k++ {
		self, ok := selfTimes(lt.depthMeanMs[k], lt.depthN[k])
		if !ok {
			continue
		}
		sum := 0.0
		fmt.Fprintf(w, "  %s\n", k)
		for d := 0; d < traceDepths; d++ {
			sum += self[d]
			fmt.Fprintf(w, "    %-16s self %10.4f   mean at depth %10.4f   n=%d\n", layerName(k, d), self[d], lt.depthMeanMs[k][d], lt.depthN[k][d])
		}
		root := lt.depthMeanMs[k][0]
		fmt.Fprintf(w, "    %-16s      %10.4f   root mean     %10.4f\n", "sum of selves", sum, root)
		if diff := sum - root; diff > 0.01*root || diff < -0.01*root {
			return fmt.Errorf("%s: layer self times sum to %.4f ms, the root mean is %.4f ms", k, sum, root)
		}
	}
	return nil
}

// values are the per-layer metrics only a traced run can give.
func (lt *layerTable) values(w *workload, untracedMeanMs float64) values {
	primary, _ := selfTimes(lt.depthMeanMs[w.primary], lt.depthN[w.primary])
	leafOf := func(k opKind) float64 { return lt.depthMeanMs[k][traceDepths-1] }
	tail := sortedCopy(lt.depth0Ms[w.primary])
	pct := tailPercentile(len(tail))
	us := func(name string) float64 { return lt.probePerMs[name] * 1000 }
	encodeUs, bareUs := us("repos.encode"), us("repos.storebatch_bare")
	return values{
		"client.self_ms":              primary[0],
		"core.http_self_ms":           primary[1],
		"core.platform_self_ms":       primary[2],
		"query.engine_ms":             leafOf(opSearch),
		"repos.storebatch_ms":         leafOf(opPush),
		"client.tail_ms":              percentile(tail, pct),
		"client.tail_pct":             pct,
		"client.trending_p50_ms":      median(lt.depth0Ms[opTrending]),
		"client.checkin_p50_ms":       median(lt.depth0Ms[opPush]),
		"host.raw_p50_ms":             median(lt.raw0Ms[w.primary]),
		"kvstore.multiscan_ms":        lt.probeMs["kvstore.multiscan"],
		"repos.decode_us_row":         us("repos.decode"),
		"exec.gather_overhead_us":     lt.probeMs["exec.gather"] * 1000,
		"social.auth_us":              us("social.auth"),
		"matview.topk_ms":             lt.probeMs["matview.topk"],
		"repos.encode_us_checkin":     encodeUs,
		"repos.storebatch_bare_ms":    lt.probeMs["repos.storebatch_bare"],
		"kvstore.putbatch_us_checkin": bareUs - encodeUs,
		"matview.apply_us_checkin":    us("matview.apply"),
		"pubsub.publish_us_checkin":   us("pubsub.publish"),
		"trace.overhead_ratio":        ratio(mean(lt.depth0Ms[w.primary]), untracedMeanMs),
	}
}

// writeSpans writes the trace: every span, in the order recorded.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
