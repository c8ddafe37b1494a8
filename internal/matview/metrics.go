package matview

import "modissense/internal/obs"

// Metric handles, resolved once at package init per the obs hot-path
// discipline. All registries share one process, so these live on
// obs.Default() and surface in GET /metrics.
var (
	mApplies = obs.Default().Counter("matview_applies_total",
		"Visits folded into the materialized trending view by the ingest hook.")
	mBuckets = obs.Default().Gauge("matview_buckets",
		"Live time buckets retained by the materialized trending view.")
	mViewPOIs = obs.Default().Gauge("matview_pois",
		"Distinct POIs tracked across the view's live buckets.")
	mExpired = obs.Default().Counter("matview_buckets_expired_total",
		"Buckets lazily dropped after falling behind the retention horizon.")
	mViewReads = obs.Default().Counter("matview_reads_total",
		"Friendless trending reads answered from the materialized view.",
		obs.L("path", "view"))
	mCacheHits = obs.Default().Counter("matview_cache_hits_total",
		"Personalized queries answered from the result cache.")
	mCacheMisses = obs.Default().Counter("matview_cache_misses_total",
		"Personalized queries that missed the result cache.")
	mCacheEvictions = obs.Default().Counter("matview_cache_evictions_total",
		"Result-cache entries evicted by the LRU byte budget.")
	mCachePatches = obs.Default().Counter("matview_cache_patches_total",
		"Friends' check-ins folded into live result-cache entries, one per visit and entry.")
	mCacheInvalidations = obs.Default().Counter("matview_cache_invalidations_total",
		"Result-cache entries dropped because a cached friend's write could not be folded in exactly.")
	mCacheStaleStores = obs.Default().Counter("matview_cache_stale_stores_total",
		"Result-cache stores rejected because a friend's write was in flight or announced mid-query.")
	mCacheBytes = obs.Default().Gauge("matview_cache_bytes",
		"Bytes held by the result cache (keys, merge state, friend lists and index registrations).")
	mCacheEntries = obs.Default().Gauge("matview_cache_entries",
		"Entries held by the result cache.")
)

// RecordViewRead counts one trending read served from the materialized
// view; the query engine calls it per friendless trending answer.
func RecordViewRead() { mViewReads.Inc() }
