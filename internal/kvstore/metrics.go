package kvstore

import "modissense/internal/obs"

// Store-level series in the shared registry. Handles resolve once at package
// init; hot paths batch into locals and flush with one atomic add per scan,
// matching the ctxPollInterval discipline (no per-row registry traffic).
var (
	mFlushes = obs.Default().Counter("kvstore_memtable_flushes_total", "Memtable flushes into immutable segments.")

	mRowsScanned = obs.Default().Counter("kvstore_rows_scanned_total", "Rows delivered by scans.")
	mSegsPruned  = obs.Default().Counter("kvstore_multiscan_segments_pruned_total", "Segments skipped by multi-range span pruning.")

	mWALSyncs = obs.Default().Counter("kvstore_wal_syncs_total", "File-backed WAL syncs to stable storage.")

	mWALBatchRecords = obs.Default().Counter("kvstore_wal_batch_records_total",
		"Batched records written to a file-backed WAL (one per multi-cell batch or commit group).")
	mWALGroupCommits = obs.Default().Counter("kvstore_wal_group_commits_total",
		"Commit groups written by group-commit WALs.")
	mWALGroupCells = obs.Default().Counter("kvstore_wal_group_cells_total",
		"Cells carried by group-commit groups (divide by group commits for the mean group size).")

	mWriteStalls = obs.Default().Counter("kvstore_write_stalls_total",
		"Writes that blocked because the immutable-memtable backlog was full (flush lagging ingest).")
	mBgCompactions = obs.Default().Counter("kvstore_background_compactions_total",
		"Size-tiered background compactions.")
	mCompactionDebt = obs.Default().Gauge("kvstore_compaction_debt_bytes",
		"Bytes in segment tiers currently eligible for background compaction (all stores).")
	mWriteAmp = obs.Default().Gauge("kvstore_write_amplification_x100",
		"Bytes written by flushes and compactions per byte ingested, ×100 (all stores).")
	mBytesIngested = obs.Default().Counter("kvstore_bytes_ingested_total",
		"Approximate bytes of cells applied to memtables.")
	mBytesFlushed = obs.Default().Counter("kvstore_bytes_flushed_total",
		"Approximate bytes of cells written into segments by memtable flushes.")
	mBytesCompacted = obs.Default().Counter("kvstore_bytes_compacted_total",
		"Approximate bytes of cells rewritten by compactions (background and major).")

	mReplicationLag = obs.Default().Gauge("kvstore_replication_lag_entries",
		"Primary mutations the slowest region read replica has not yet observed (all tables).")
	mReplicationShipped = obs.Default().Counter("kvstore_replication_shipped_total",
		"Mutations WAL-shipped to region read replicas.")
	mReplicaReads = obs.Default().Counter("kvstore_replica_reads_total",
		"Coprocessor attempts served by a read replica instead of the primary.")
	mReadAttempts = obs.Default().Counter("kvstore_read_attempts_total",
		"Per-region coprocessor read attempts (first tries, retries and hedges).")

	mFailoverPromotes = obs.Default().Counter("kvstore_failover_total",
		"Failover state-machine events, by kind.", obs.L("event", "promote"))
	mFailoverReseeds = obs.Default().Counter("kvstore_failover_total",
		"Failover state-machine events, by kind.", obs.L("event", "reseed"))
	mFailoverRejoins = obs.Default().Counter("kvstore_failover_total",
		"Failover state-machine events, by kind.", obs.L("event", "rejoin"))
	mFailoverFailures = obs.Default().Counter("kvstore_failover_total",
		"Failover state-machine events, by kind.", obs.L("event", "failed"))
	mFailoverFenced = obs.Default().Counter("kvstore_failover_total",
		"Failover state-machine events, by kind.", obs.L("event", "fence_reject"))

	mNodesHealthy = obs.Default().Gauge("kvstore_node_health",
		"Nodes per failure-detector state (failover-enabled tables).", obs.L("state", "healthy"))
	mNodesSuspect = obs.Default().Gauge("kvstore_node_health",
		"Nodes per failure-detector state (failover-enabled tables).", obs.L("state", "suspect"))
	mNodesDown = obs.Default().Gauge("kvstore_node_health",
		"Nodes per failure-detector state (failover-enabled tables).", obs.L("state", "down"))
	mRegionEpoch = obs.Default().Gauge("kvstore_region_epoch",
		"Highest region fencing epoch observed (monotonic; bumps on every failover promotion).")

	mBlocksLoaded = obs.Default().Counter("kvstore_blocks_loaded_total",
		"Segment blocks materialized by reads (block-cache hits plus decodes).")
	mBlockDecodes = obs.Default().Counter("kvstore_block_decodes_total",
		"Segment blocks decoded on a block-cache miss.")
	mBlocksSkipped = obs.Default().Counter("kvstore_blocks_skipped_total",
		"Segment blocks pruned without decoding (block min/max spans, segment pruning).")
	mBlockDecodeErrors = obs.Default().Counter("kvstore_block_decode_errors_total",
		"Segment block decode failures (corrupt in-memory payloads; the reader treats the segment as exhausted).")

	mBlockCacheHits = obs.Default().Counter("kvstore_block_cache_hits_total",
		"Block-cache lookups served from cache.")
	mBlockCacheMisses = obs.Default().Counter("kvstore_block_cache_misses_total",
		"Block-cache lookups that fell through to a decode.")
	mBlockCacheEvictions = obs.Default().Counter("kvstore_block_cache_evictions_total",
		"Decoded blocks evicted by the block cache's CLOCK hand to stay within its byte budget.")
	mBlockCacheBytes = obs.Default().Gauge("kvstore_block_cache_resident_bytes",
		"Decoded block bytes resident in block caches (all caches).")
	mBlockCacheEntries = obs.Default().Gauge("kvstore_block_cache_entries",
		"Decoded blocks resident in block caches (all caches).")

	mSegLogicalBytes = obs.Default().Gauge("kvstore_segment_logical_bytes",
		"Approximate logical cell bytes held by installed segments (all stores).")
	mSegResidentBytes = obs.Default().Gauge("kvstore_segment_resident_bytes",
		"Encoded (resident) segment block bytes held by installed segments (all stores).")

	// storeGauges are the gauges every store contributes to (Store.gauges).
	storeGauges = [3]*obs.Gauge{mSegLogicalBytes, mSegResidentBytes, mCompactionDebt}
)
