package modissense_test

// The mutant catalogue: each row re-introduces one bug with an exact edit
// and names the tests that must fail under it (mutation testing, DeMillo,
// Lipton & Sayward, "Hints on Test Data Selection", IEEE Computer 1978).
// A PR whose CHANGES.md line claims "fails under mutation X" adds X here in
// the same diff, and a PR that rewrites the code an entry mutates, or
// renames a test one names, updates the entry.
//
// TestMutantCatalogue checks every row without compiling anything, so plain
// `go test ./...` fails on a stale row. The runner that applies each row to
// a copy of the module and requires its tests to fail is TestMutants
// (mutants_run_test.go), behind the mutants build tag: `make mutants`.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// mutant is one catalogue row.
type mutant struct {
	pr   int    // the CHANGES.md entry that recorded the row, by number
	file string // the file edited, from the module root
	old  string // exact text, which must occur in file exactly once
	new  string // what replaces it
	pkg  string // the package whose tests run, as go test names it
	// run is the alternation of the test names that must each fail under
	// the edit (one name may carry a /subtest, alone); empty for a none row.
	run string
	// none, for a row no test catches, says why and names the ROADMAP item
	// (21, 25, 28 or 5) whose harness should.
	none string
	// timeout, when set, bounds go test's run of the mutant: a mutant that
	// hangs counts as caught only if each named test failed before it.
	timeout time.Duration
	// count, when set, runs the named tests that many times, for a catch
	// that depends on how goroutines interleave: a test that fails in one
	// of the runs has failed.
	count int
}

func (m mutant) String() string {
	old, _, _ := strings.Cut(strings.TrimSpace(m.old), "\n")
	return fmt.Sprintf("PR %d %s (%s): %q", m.pr, m.file, m.pkg, old)
}

// keyFill is VisitsRepo.scan reading a keyed row's user and time off its
// row key, which three rows delete.
const keyFill = "\t\tif err == nil && raw[0] == model.VisitBinaryTagKeyed {\n\t\t\tvar ok bool\n\t\t\tif v.UserID, v.Time, _, ok = parseVisitRowKey(row.Row); !ok {\n\t\t\t\terr = fmt.Errorf(\"repos: visit row %q: malformed key\", row.Row)\n\t\t\t}\n\t\t}\n"

var mutants = []mutant{
	// The result cache's announce guard: a write not announced before the
	// table makes it visible can be folded into an entry a read stored from
	// a scan that already held it. About one run in twenty interleaves so
	// that no read does; three runs make a miss rare.
	{pr: 21, file: "internal/matview/cache.go",
		old: "func (c *ResultCache) Announce(visits []model.Visit) {\n\tc.indexMu.Lock()\n",
		new: "func (c *ResultCache) Announce(visits []model.Visit) {\n\treturn\n\tc.indexMu.Lock()\n",
		pkg: "./internal/query", run: "TestResultCacheConcurrentWrites", count: 3},
	// A replica-served (hedged) answer memoized.
	{pr: 21, file: "internal/query/query.go",
		old: "if len(missing) == 0 && !replicaServed {",
		new: "if len(missing) == 0 {",
		pkg: "./internal/query", run: "TestResultCacheSkipsReplicaAnswers"},

	// The shared POI documents (DESIGN.md §4.1) and the cost model.
	// Skip the documents-log persist:
	{pr: 36, file: "internal/repos/visitsrepo.go",
		old: "\tif docs != nil {\n\t\tif err := r.docs.persist(docs); err != nil {",
		new: "\tif false {\n\t\tif err := r.docs.persist(docs); err != nil {",
		pkg: "./internal/core", run: "TestCrashPoints"},
	{pr: 36, file: "internal/repos/visitsrepo.go",
		old: "\tif docs != nil {\n\t\tif err := r.docs.persist(docs); err != nil {",
		new: "\tif false {\n\t\tif err := r.docs.persist(docs); err != nil {",
		pkg: "./internal/repos", run: "TestDocsLogCommitsFirst"},
	// Drop the boot check of a row naming a document the log lacks:
	{pr: 36, file: "internal/repos/visitsrepo.go",
		old: "doc != nil && !docs.holds(doc) {",
		new: "doc != nil && false {",
		pkg: "./internal/core", run: "TestCrashPoints"},
	// Drop the intern's hash-collision check:
	{pr: 36, file: "internal/model/docs.go",
		old: "\t\t\tif !SameDocument(v.doc, p) {\n",
		new: "\t\t\tif false {\n",
		pkg: "./internal/model", run: "TestInternPOICollision"},
	// RowScan +1 %: the simulated curves move.
	{pr: 36, file: "internal/cluster/costmodel.go",
		old: "RowScan:          8.5e-6,",
		new: "RowScan:          8.585e-6,",
		pkg: "./cmd/modissense-bench", run: "TestQuickFiguresGolden"},

	// Pooled aggregation state.
	{pr: 37, file: "internal/query/query.go",
		old: "\t\tout.release()\n", new: "",
		pkg: "./internal/query", run: "TestQueryAggregationAllocsSteadyState|TestSumReleasesRegionOutputs"},
	{pr: 37, file: "internal/query/query.go",
		old: "\ts.release(merged)\n", new: "",
		pkg: "./internal/query", run: "TestQueryAggregationAllocsSteadyState"},
	{pr: 37, file: "internal/query/query.go",
		old: "totalCandidates += out.work.CandidatePOIs",
		new: "totalCandidates += len(out.aggs)",
		pkg: "./internal/query", run: "TestExecAndWorkPinned"},
	{pr: 37, file: "internal/query/query.go",
		old: "clear(aggs[:cap(aggs)])", new: "clear(aggs)",
		pkg: "./internal/query", run: "TestSumReleasesRegionOutputs"},

	// Row runs. Deleting `it.ci = j` is not the entry: the scan
	// then never ends.
	{pr: 38, file: "internal/kvstore/store.go",
		old: "if !decided && cells[i].Timestamp <= asOf {", new: "if !decided {",
		pkg: "./internal/kvstore", run: "TestMultiScanRowShapes|TestMultiScanEquivalenceRandomized"},
	{pr: 38, file: "internal/kvstore/segment.go",
		old: "*end = it.stopIndex(stop)", new: "*end = len(it.cells)",
		pkg: "./internal/kvstore", run: "TestMultiScanRowShapes|TestMultiScanEquivalenceRandomized"},
	{pr: 38, file: "internal/kvstore/segment.go",
		old: "\tit.ci = j\n", new: "\tit.ci++\n",
		pkg: "./internal/kvstore", run: "TestMultiScanRowShapes|TestMultiScanEquivalenceRandomized"},
	{pr: 38, file: "internal/kvstore/multiscan.go",
		old: "res.Cells = resolveRow(cells, asOf, res.Cells[:0])",
		new: "res.Cells = resolveRow(cells, asOf, nil)",
		pkg: "./internal/kvstore", run: "TestMultiScanRowAllocsFlat"},

	// The static contracts' own fixtures.
	{pr: 39, file: "lint_test.go",
		old: "violations = append(violations, v...)",
		new: "violations = append(violations, v[:0]...)",
		pkg: ".", run: "TestDocRuleFixture"},
	{pr: 39, file: "lint_test.go",
		old: "\t\tcase !live:\n", new: "\t\tcase false:\n",
		pkg: ".", run: "TestCheckUnusedFixture"},
	{pr: 39, file: "lint_test.go",
		old: "if l.info.Types[e].Value == nil {", new: "if false {",
		pkg: ".", run: "TestLabelRuleFixture"},
	{pr: 39, file: "internal/core/api_doc_test.go",
		old: "if !documented[r] {", new: "if false {",
		pkg: "./internal/core", run: "TestRouteDriftSeeded"},
	{pr: 39, file: "internal/core/api_doc_test.go",
		old: "if !isServed[r] {", new: "if false {",
		pkg: "./internal/core", run: "TestRouteDriftSeeded"},

	// Documents compared by value (the sign of zero), and segment
	// pruning.
	{pr: 40, file: "internal/model/docs.go",
		old: "return math.Float64bits(a) == math.Float64bits(b)", new: "return a == b",
		pkg: "./internal/query", run: "TestResultCacheEquivalence"},
	{pr: 40, file: "internal/kvstore/store.go",
		old: "\t\t\tbs.skipped += int64(len(s.segments[i].blocks))\n", new: "",
		pkg: "./internal/kvstore", run: "TestOneRowReadsAcrossDisjointSegments"},
	{pr: 40, file: "internal/kvstore/store.go",
		old: "if src != nil && !s.segments[i].overlapsRanges(src, buf) {", new: "if false {",
		pkg: "./internal/kvstore", run: "TestOneRowReadsAcrossDisjointSegments|TestMultiScanSegmentPruning"},

	// The keyed visit layout. The key fill in VisitsRepo.scan:
	{pr: 41, file: "internal/repos/visitsrepo.go",
		old: keyFill,
		new: "",
		pkg: "./internal/core", run: "TestCrashPoints"},
	{pr: 41, file: "internal/repos/visitsrepo.go",
		old: keyFill,
		new: "",
		pkg: "./internal/repos", run: "TestVisitsRepoStoreScan"},
	{pr: 41, file: "internal/repos/visitsrepo.go",
		old: keyFill,
		new: "",
		pkg: "./internal/query", run: "TestPersonalizedMatchesReference"},
	// The keyed trailing-bytes check (parseEscaped's):
	{pr: 41, file: "internal/model/codec.go",
		old: "\tif off != len(b) {\n\t\treturn errTrailing(len(b) - off)\n\t}\n\treturn nil\n}\n\n// Resolve",
		new: "\treturn nil\n}\n\n// Resolve",
		pkg: "./internal/model", run: "TestVisitBinaryRejectsCorruptPayloads|TestVisitBinaryErrorTexts|FuzzVisitView"},
	// Keyed rows left out of the boot check:
	{pr: 41, file: "internal/repos/visitsrepo.go",
		old: "\t\tif docs == nil || !ok {\n",
		new: "\t\tif docs == nil || !ok || raw[0] == model.VisitBinaryTagKeyed {\n",
		pkg: "./internal/core", run: "TestCrashPoints"},

	// The per-POI document memo, dense aggregation entries and
	// keyword bytes computed at intern. The memo trusting a handle without
	// its hash:
	{pr: 42, file: "internal/model/codec.go",
		old: "if h.v == nil || h.id != v.POIID || h.hash != v.docHash {",
		new: "if h.v == nil || h.id != v.POIID {",
		pkg: "./internal/model", run: "TestResolveHandles"},
	{pr: 42, file: "internal/model/codec.go",
		old: "if h.v == nil || h.id != v.POIID || h.hash != v.docHash {",
		new: "if h.v == nil || h.id != v.POIID {",
		pkg: "./internal/query", run: "TestAggregatorAlternatingDocumentVersions|TestBytesMergedIsFirstRowDocuments"},
	{pr: 42, file: "internal/model/codec.go",
		old: "if h.v == nil || h.id != v.POIID || h.hash != v.docHash {",
		new: "if h.v == nil || h.hash != v.docHash {",
		pkg: "./internal/model", run: "TestResolveHandles"},
	// The dense-entry reset in aggScratch.reset (deleting the line does not
	// build):
	{pr: 42, file: "internal/query/query.go",
		old: "\t\ts.dense[id] = aggEntry{}\n", new: "\t\t_ = id\n",
		pkg: "./internal/query", run: "TestSumReleasesRegionOutputs"},
	{pr: 42, file: "internal/model/docs.go",
		old: "v.keywordBytes += len(k)", new: "_ = k",
		pkg: "./internal/model", run: "TestResolveHandles"},
	{pr: 42, file: "internal/model/docs.go",
		old: "v.keywordBytes += len(k)", new: "_ = k",
		pkg: "./internal/query", run: "TestBytesMergedIsFirstRowDocuments|TestExecAndWorkPinned"},

	// Row-key prefix sharing off.
	{pr: 43, file: "internal/kvstore/block.go",
		old: "shared = commonPrefixLen(b.prevRow, c.Row)", new: "shared = 0",
		pkg: "./internal/kvstore", run: "TestBlockPrefixCompressionShrinksSharedPrefixRows|TestSegmentResidentSmallerThanLogical"},

	// The write path's buffers. A read-path iterator reusing its
	// decode slice, as iteratorNoCache does: an exhausted one hands its
	// stale last block to rowRun forever, so the unbounded read loops of
	// other tests never end and grow until the process is killed. Hence
	// the narrowed run and the timeout.
	{pr: 44, file: "internal/kvstore/segment.go",
		old: "it := &segmentIterator{seg: s, bs: bs}",
		new: "it := &segmentIterator{seg: s, bs: bs, reuse: true}",
		pkg: "./internal/kvstore", run: "TestRowRunsOutliveTheNextBlock|TestBlockCacheStoreCounters|TestBlockCacheRetiredSegmentAgesOut",
		timeout: 30 * time.Second},
	// The segment builder's order check:
	{pr: 44, file: "internal/kvstore/segment.go",
		old: "if s.numCells > 0 && compareCells(&sb.prev, c) >= 0 {", new: "if false {",
		pkg: "./internal/kvstore", run: "TestStreamedBuildsMatchSliceBuild"},
	// A fresh cell slice for every decoded block:
	{pr: 44, file: "internal/kvstore/block.go",
		old: "if wantCells > cap(cells) {", new: "if wantCells > 0 {",
		pkg: "./internal/kvstore", run: "TestCompactionAllocsPerInputCell"},
	// mergeIterator.next compares the skipped cell in place, where a
	// compaction source's next block overwrites it:
	{pr: 44, file: "internal/kvstore/segment.go",
		old: "\tcur := *m.cell()\n\tfor {\n\t\tw := m.winner\n\t\tm.live[w].next()\n\t\tm.advanced(w)\n\t\tif !m.valid() || compareCells(m.cell(), &cur) != 0 {",
		new: "\tcur := m.cell()\n\tfor {\n\t\tw := m.winner\n\t\tm.live[w].next()\n\t\tm.advanced(w)\n\t\tif !m.valid() || compareCells(m.cell(), cur) != 0 {",
		pkg: "./internal/kvstore", run: "TestStreamedBuildsMatchSliceBuild"},
	// A batch the WAL could not replay acknowledged:
	{pr: 44, file: "internal/kvstore/groupcommit.go",
		old: "body, err := checkWALBatch(cells)", new: "body, err := checkWALBatch(nil)",
		pkg: "./internal/kvstore", run: "TestDurableTableRefusesUnreplayableBatch"},

	// The long-poll wait multiplied before its clamp overflows, and
	// an example's printed value.
	{pr: 45, file: "internal/core/subscriptions.go",
		old: "wait = time.Duration(min(int64(v), maxEventWait.Milliseconds())) * time.Millisecond",
		new: "wait = time.Duration(v) * time.Millisecond",
		pkg: "./internal/core", run: "TestAPISubscriptionEventsHugeWait"},
	{pr: 45, file: "example_test.go",
		old: `%d visits\n", i+1, s.POI.Name, s.Visits)`,
		new: `%d visits\n", i+1, s.POI.Name, s.Visits+1)`,
		pkg: ".", run: "Example_trendingEvents"},

	// The publish path by reference, the commit-group seal. The Seq
	// a ring slot derives from its position (TestConcurrentPublishBatch
	// fails too, but only after its 20 s context):
	{pr: 46, file: "internal/pubsub/pubsub.go",
		old: "first := s.nextSeq - uint64(s.count)",
		new: "first := s.nextSeq - uint64(s.count) + 1",
		pkg: "./internal/pubsub", run: "TestPublishBatchAgainstOracle|TestRingGrowsWhileWrapped|TestOverflowAtQueueCap|TestDropOldestAndCursorResume"},
	// A memo hit reusing its POI record for another id or name:
	{pr: 46, file: "internal/pubsub/pubsub.go",
		old: "return p != nil && p.id == c.POIID && p.name == c.POIName &&",
		new: "return p != nil &&",
		pkg: "./internal/pubsub", run: "TestMemoSharesPOIRecords|TestPublishBatchAgainstOracle"},
	// The interned match text left empty:
	{pr: 46, file: "internal/model/docs.go",
		old: "nKeywords: len(doc.Keywords), text: matchText(doc)}",
		new: "nKeywords: len(doc.Keywords)}",
		pkg: "./internal/model", run: "TestMatchText"},
	{pr: 46, file: "internal/model/docs.go",
		old: "nKeywords: len(doc.Keywords), text: matchText(doc)}",
		new: "nKeywords: len(doc.Keywords)}",
		pkg: "./internal/core", run: "TestPublishVisitsAllocs|TestAPISubscriptionKeywordDelivery"},
	// The commit-group seal off: replay reads the group as corrupt.
	{pr: 46, file: "internal/kvstore/groupcommit.go",
		old: "if g := w.cur; g != nil && g.admits(len(cells), body) {",
		new: "if g := w.cur; g != nil {",
		pkg: "./internal/kvstore", run: "TestGroupCommitSealsAtTheCaps"},

	// Trending windows kept. Apply skips the held windows:
	{pr: 47, file: "internal/matview/view.go",
		old: "for _, w := range v.windows {", new: "for _, w := range v.windows[:0] {",
		pkg: "./internal/matview", run: "TestViewAgainstOracle|TestViewConcurrentApplyAndTopK"},
	// Expiry keeps a window behind the floor:
	{pr: 47, file: "internal/matview/view.go",
		old: "return w.from < floor })", new: "return false })",
		pkg: "./internal/matview", run: "TestViewAgainstOracle|TestViewConcurrentApplyAndTopK"},
	// A hit ignores the served start, so windows ending together share one
	// total:
	{pr: 47, file: "internal/matview/view.go",
		old: "if held.from == from && held.last == last {", new: "if held.last == last {",
		pkg: "./internal/matview", run: "TestViewAgainstOracle"},

	// Merge candidates by reference. Every candidate copies its
	// document:
	{pr: 50, file: "internal/query/query.go",
		old: "\t\tdoc := v.SharedDoc()\n", new: "\t\tp := v.POI()\n\t\tdoc := &p\n",
		pkg: "./internal/query", run: "TestSumBytesPerCandidate"},
	// The heap's items grown by append, not sized once:
	{pr: 50, file: "internal/query/query.go",
		old: "make([]poiAgg, 0, min(k, n))", new: "make([]poiAgg, 0)",
		pkg: "./internal/query", run: "TestRankAllocs"},
	// A created cached candidate owns a copy of a shared document:
	{pr: 50, file: "internal/query/matview.go",
		old: "\t\t\t\tp, _, _ = model.InternPOI(&v.POI)\n",
		new: "\t\t\t\t_, _, _ = model.InternPOI(&v.POI)\n",
		pkg: "./internal/query", run: "TestCandidatesPointAtSharedVersions"},

	// Only written layouts read, route budgets. The documents-log
	// record's trailing-bytes check:
	{pr: 51, file: "internal/model/codec.go",
		old: "\tif off != len(b) {\n\t\treturn POI{}, errTrailing(len(b) - off)\n\t}\n", new: "",
		pkg: "./internal/model", run: "TestVisitBinaryRejectsCorruptPayloads|TestVisitBinaryErrorTexts|FuzzDocRecord"},
	// The boot check skips rows that are not keyed:
	{pr: 51, file: "internal/repos/visitsrepo.go",
		old: "\t\tif docs == nil || !ok {\n",
		new: "\t\tif docs == nil || !ok || raw[0] != model.VisitBinaryTagKeyed {\n",
		pkg: "./internal/core", run: "TestBootFailsOnDeletedLayout"},
	// One more allocation a search (r = r.WithContext(ctx) in the same
	// place adds none):
	{pr: 51, file: "internal/core/http.go",
		old: "\tdefer cancel()\n\tres, err := p.Search(ctx, SearchRequest{",
		new: "\tdefer cancel()\n\tctx = context.WithValue(ctx, \"seeded\", 1)\n\tres, err := p.Search(ctx, SearchRequest{",
		pkg: ".", run: "TestRouteAllocBudgets"},

	// Friend ranges written on demand. The region-bound clamps of a
	// region's first and last range; no answer shows either, because a
	// region's store holds only its own rows:
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: "if i == 0 && string(b[len(dst):]) < c.start {", new: "if false {",
		pkg: "./internal/query", run: "TestSplitsInsideTheFirstAndLastFriendsRows"},
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: "if i == 0 && string(b[len(dst):]) < c.start {", new: "if false {",
		pkg: "./internal/kvstore", run: "TestClipRanges"},
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: `if i == c.n-1 && c.end != "" && (len(b) == len(dst) || string(b[len(dst):]) > c.end) {`,
		new: "if false {",
		pkg: "./internal/query", run: "TestSplitsInsideTheFirstAndLastFriendsRows"},
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: `if i == c.n-1 && c.end != "" && (len(b) == len(dst) || string(b[len(dst):]) > c.end) {`,
		new: "if false {",
		pkg: "./internal/kvstore", run: "TestClipRanges"},
	// A store scan no longer checks the ranges it reaches:
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: "\t\tif err := checkRange(i, start, stop, prevStop); err != nil {\n\t\t\treturn err\n\t\t}\n\t\tprevStop = stop\n\t\tmerged",
		new: "\t\t_ = checkRange(i, start, stop, prevStop)\n\t\tprevStop = stop\n\t\tmerged",
		pkg: "./internal/kvstore", run: "TestValidateScanRanges"},
	// A fresh bound buffer for every range:
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: "b := src.AppendStart((*buf)[:0], i)", new: "b := src.AppendStart(nil, i)",
		pkg: "./internal/kvstore", run: "TestMultiScanAllocsIndependentOfRanges"},
	{pr: 52, file: "internal/kvstore/multiscan.go",
		old: "b := src.AppendStart((*buf)[:0], i)", new: "b := src.AppendStart(nil, i)",
		pkg: "./internal/query", run: "TestRegionScanAllocsIndependentOfFriends"},
	// A string per friend id in the cache key:
	{pr: 52, file: "internal/query/matview.go",
		old: "\t\tb.Write(strconv.AppendInt(num[:0], f, 10))\n",
		new: "\t\tb.WriteString(strconv.FormatInt(f, 10))\n",
		pkg: ".", run: "TestRouteAllocBudgets"},

	// Binary row keys. Times written with their sign bit, so
	// negative times sort after positive ones:
	{pr: 53, file: "internal/repos/keys.go",
		old: "const flipSign = 1 << 63", new: "const flipSign = 0",
		pkg: "./internal/repos", run: "FuzzVisitRowKey|TestVisitTimesOutsideTheKeyDomain"},
	// The stop of a window ending at math.MaxInt64 wraps to the user's
	// first time:
	{pr: 53, file: "internal/repos/keys.go",
		old: "if toMillis == math.MaxInt64 {", new: "if toMillis == math.MaxInt64 && false {",
		pkg: "./internal/repos", run: "TestVisitTimesOutsideTheKeyDomain|TestGPSRepo|TestTextRepo"},
	{pr: 53, file: "internal/repos/keys.go",
		old: "if toMillis == math.MaxInt64 {", new: "if toMillis == math.MaxInt64 && false {",
		pkg: "./internal/query", run: "TestSearchWindowsPastTheKeyDomain"},
	// The default visibility bound below the largest times:
	{pr: 53, file: "internal/kvstore/multiscan.go",
		old: "asOf = math.MaxInt64", new: "asOf = math.MaxInt64 >> 1",
		pkg: "./internal/repos", run: "TestVisitTimesOutsideTheKeyDomain"},
	{pr: 53, file: "internal/kvstore/multiscan.go",
		old: "asOf = math.MaxInt64", new: "asOf = math.MaxInt64 >> 1",
		pkg: "./internal/core", run: "TestPushCheckinsStoresFarFutureTimes|TestTrendingViewCountsVisitsNearMaxInt64"},
	// The boot pass skips a key it cannot parse:
	{pr: 53, file: "internal/repos/visitsrepo.go",
		old: "\t\tif !ok {\n\t\t\trowErr = fmt.Errorf(\"repos: visit row %q: malformed key\", row.Row)\n\t\t\treturn false\n\t\t}\n",
		new: "",
		pkg: "./internal/core", run: "TestBootFailsOnDeletedLayout/decimal-key"},
	// The bucket end wraps negative in the last bucket below MaxInt64 (a
	// later rewrite of Apply moved the row to this text):
	{pr: 53, file: "internal/matview/view.go",
		old: "if bs < floor {", new: "if bs+v.bucketMillis <= floor {",
		pkg: "./internal/core", run: "TestTrendingViewCountsVisitsNearMaxInt64"},

	// The fixed-width keyed payload, the view near MinInt64. The
	// fast path takes a coded row with trailing bytes:
	{pr: 54, file: "internal/model/codec.go",
		old: "if len(b) == keyedLen && b[0] == VisitBinaryTagKeyed",
		new: "if len(b) >= keyedLen && b[0] == VisitBinaryTagKeyed",
		pkg: "./internal/model", run: "TestVisitBinaryRejectsCorruptPayloads|TestVisitBinaryErrorTexts|FuzzVisitView"},
	// A connector left out of the code table, so its rows take the escape:
	{pr: 54, file: "internal/model/codec.go",
		old: `"twitter", "foursquare"}`, new: `"twitter"}`,
		pkg: "./internal/core", run: "TestNetworkCodesCoverConnectors"},
	{pr: 54, file: "internal/model/codec.go",
		old: `"twitter", "foursquare"}`, new: `"twitter"}`,
		pkg: "./internal/model", run: "TestVisitBinaryGoldenBytes"},
	// The horizon cutoff wraps:
	{pr: 54, file: "internal/matview/view.go",
		old: "if v.high < math.MinInt64+v.horizonMillis {", new: "if false {",
		pkg: "./internal/matview", run: "TestViewNearMinInt64"},
	// The start of the partial bucket above MinInt64 wraps:
	{pr: 54, file: "internal/matview/view.go",
		old: "if start := q * v.bucketMillis; start <= t {", new: "if start := q * v.bucketMillis; true {",
		pkg: "./internal/matview", run: "TestViewNearMinInt64"},

	// One wire schema, coded networks without a copy. A coded row's
	// network copied on decode:
	{pr: 55, file: "internal/model/codec.go",
		old: "\t\tnetwork = networkCodes[v.code]\n",
		new: "\t\tnetwork = string([]byte(networkCodes[v.code]))\n",
		pkg: "./internal/model", run: "TestSharedDocsAllocs"},
	// A member dropped from a decoder's fold list:
	{pr: 55, file: "internal/wire/wire.go",
		old: `"grade", "network"}`, new: `"grade"}`,
		pkg: "./internal/wire", run: "TestRequestJSONCoversEveryField"},
	// The same in the search body's list; none of the decode-edge,
	// fuzz-seed or envelope tests fails under it:
	{pr: 55, file: "internal/wire/wire.go",
		old: `"max_lat", "max_lon", "keyword"`, new: `"max_lat", "keyword"`,
		pkg: "./internal/wire", run: "TestRequestJSONCoversEveryField"},
	{pr: 55, file: "internal/wire/wire.go",
		old: "\ts.Keyword, s.OrderBy = strings.Clone(s.Keyword), strings.Clone(s.OrderBy)\n",
		new: "\t_ = strings.Clone\n",
		pkg: "./internal/wire", run: "TestRequestJSONDetachesRetainedStrings|TestRequestJSONAllocs"},

	// Crash points over both logs, and the torn-tail cut. A reopened
	// repository's sequence restarts at zero:
	{pr: 57, file: "internal/repos/visitsrepo.go",
		old: "\tr.seq.Store(top)\n", new: "",
		pkg: "./internal/core", run: "TestCrashPoints"},
	// A write refused at admission only after its log append, so a reboot
	// replays it:
	{pr: 57, file: "internal/kvstore/region.go",
		old: "\terr := t.eachRun(cells, func(r *Region, _ []Cell) error { return t.admitWrite(r, epoch) })\n\tif err != nil {\n\t\treturn err\n\t}\n\tif t.wal != nil {\n\t\tif err := t.wal.AppendBatch(cells); err != nil {\n\t\t\treturn fmt.Errorf(\"kvstore: table wal: %w\", err)\n\t\t}\n\t}\n",
		new: "\tif t.wal != nil {\n\t\tif err := t.wal.AppendBatch(cells); err != nil {\n\t\t\treturn fmt.Errorf(\"kvstore: table wal: %w\", err)\n\t\t}\n\t}\n\terr := t.eachRun(cells, func(r *Region, _ []Cell) error { return t.admitWrite(r, epoch) })\n\tif err != nil {\n\t\treturn err\n\t}\n",
		pkg: "./internal/core", run: "TestCrashPoints"},
	// The torn tail left in place, so the next append follows torn bytes
	// and the boot after it fails mid-log or loses the append:
	{pr: 57, file: "internal/kvstore/wal.go",
		old: "if err != nil || !torn {", new: "if err != nil || !torn || true {",
		pkg: "./internal/core", run: "TestCrashPoints"},
	{pr: 57, file: "internal/kvstore/wal.go",
		old: "if err != nil || !torn {", new: "if err != nil || !torn || true {",
		pkg: "./internal/kvstore", run: "FuzzReplayWAL"},
	// A batch's documents persisted after its visit rows: a crash image
	// holds the logs' final bytes, not their write order, so the checker
	// passes; the ordering test does not:
	{pr: 57, file: "internal/repos/visitsrepo.go",
		old: "\tif docs != nil {\n\t\tif err := r.docs.persist(docs); err != nil {\n\t\t\treturn fmt.Errorf(\"repos: persist POI documents: %w\", err)\n\t\t}\n\t}\n\tif r.announce != nil {\n\t\tr.announce(visits)\n\t}\n\terr := r.table.PutBatch(cells)\n",
		new: "\tif r.announce != nil {\n\t\tr.announce(visits)\n\t}\n\terr := r.table.PutBatch(cells)\n\tif docs != nil && err == nil {\n\t\tif err := r.docs.persist(docs); err != nil {\n\t\t\treturn fmt.Errorf(\"repos: persist POI documents: %w\", err)\n\t\t}\n\t}\n",
		pkg: "./internal/repos", run: "TestDocsLogCommitsFirst"},
	// The cut not synced under SyncGroup:
	{pr: 57, file: "internal/kvstore/wal.go",
		old: "if err == nil && policy == SyncGroup {", new: "if err == nil && false {",
		pkg:  "./internal/kvstore",
		none: "a crash image copied from the page cache holds the cut whether or not it was synced; only a machine-crash model that drops unsynced writes sees it, item 5"},
}

// noneItem is what a none row's reason must name: the ROADMAP item whose
// harness should catch the bug.
var noneItem = regexp.MustCompile(`\bitem (5|21|25|28)\b`)

// TestMutantCatalogue checks every row statically: the file exists, the old
// text occurs in it exactly once and differs from the new text, the package
// directory exists, and every name in the run alternation is a Test, Fuzz
// or Example function of that package. A none row names no test and gives
// a reason naming item 5, 21, 25 or 28.
func TestMutantCatalogue(t *testing.T) {
	names := map[string]map[string]bool{}
	for _, m := range mutants {
		if m.pr <= 0 || m.timeout < 0 || m.count < 0 {
			t.Errorf("%v: a row needs its PR, and no negative timeout or count", m)
		}
		src, err := os.ReadFile(m.file)
		if err != nil {
			t.Errorf("%v: %v", m, err)
		} else if n := strings.Count(string(src), m.old); m.old == "" || n != 1 {
			t.Errorf("%v: the old text occurs %d times, want once", m, n)
		}
		if m.old == m.new {
			t.Errorf("%v: the new text is the old one", m)
		}
		if m.pkg != "." && !strings.HasPrefix(m.pkg, "./") {
			t.Errorf("%v: package %q is not a ./ path", m, m.pkg)
			continue
		}
		dir := filepath.FromSlash(strings.TrimPrefix(m.pkg, "./"))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("%v: package %q is no directory", m, m.pkg)
			continue
		}
		if m.run == "" {
			if !noneItem.MatchString(m.none) {
				t.Errorf("%v: a none row's reason must name item 5, 21, 25 or 28", m)
			}
			continue
		}
		if m.none != "" {
			t.Errorf("%v: a row naming tests is no none row", m)
		}
		if names[dir] == nil {
			names[dir] = testFuncs(t, dir)
		}
		alts := strings.Split(m.run, "|")
		for _, alt := range alts {
			name, sub, _ := strings.Cut(alt, "/")
			if sub != "" && len(alts) > 1 {
				t.Errorf("%v: a /subtest may only follow a lone test name", m)
			}
			if !names[dir][name] {
				t.Errorf("%v: %s is no Test, Fuzz or Example function of %s", m, name, m.pkg)
			}
		}
	}
}

// testFuncs returns the names of the Test, Fuzz and Example functions that
// dir's _test.go files declare.
func testFuncs(t *testing.T, dir string) map[string]bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				for _, prefix := range []string{"Test", "Fuzz", "Example"} {
					if strings.HasPrefix(fn.Name.Name, prefix) {
						names[fn.Name.Name] = true
					}
				}
			}
		}
	}
	return names
}
