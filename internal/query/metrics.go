package query

import "modissense/internal/obs"

// Query-layer series in the shared registry. query_queries_total counts the
// personalized queries, the ones that fan out coprocessors, under the fixed
// label path="personalized"; trending reads answered from the view are
// counted by matview_reads_total{path="view"} instead.
var (
	mQueriesPersonalized = obs.Default().Counter("query_queries_total", "Queries executed by path.",
		obs.L("path", "personalized"))
	mCoprocLatency = obs.Default().Histogram("query_coprocessor_seconds",
		"Real execution time of one region's coprocessor.", obs.LatencyBuckets())
	mMergeLatency = obs.Default().Histogram("query_merge_seconds",
		"Real time of the web-server merge of per-region aggregates.", obs.LatencyBuckets())
	mMergeCandidates = obs.Default().Histogram("query_merge_candidates",
		"Partial aggregates entering one merge.", obs.SizeBuckets())
	mTopKEvictions = obs.Default().Counter("query_topk_evictions_total",
		"Aggregates displaced from the bounded top-k merge heap.")
	mQueriesDegraded = obs.Default().Counter("query_queries_degraded_total",
		"Personalized queries answered without every region (partial results).")
	mRegionsMissing = obs.Default().Counter("query_regions_missing_total",
		"Regions dropped from a degraded answer after exhausting their read attempts.")
)
