package kvstore

import (
	"sync"
	"time"
)

// Background size-tiered compaction. The seed store compacted on the write
// path: when the segment count hit the trigger, the writer merged every
// segment into one while holding the store lock — a stop-the-world pause
// that grows with the data. The background compactor instead picks runs of
// similar-sized adjacent segments (a size tier), merges them off the lock,
// and swaps the result in under a short critical section. Each store runs at
// most one compactor goroutine at a time (single-flight), so compaction
// parallelism comes from the regions of a table, and an optional shared
// RateLimiter bounds the aggregate merge bandwidth.
//
// Compactions never drop tombstones: a tombstone in the merged run may mask
// older versions living in segments outside the run, and dropping it would
// resurrect them.

// sizeTier buckets a segment's byte size into exponential classes (tier 0
// below 4 KiB, then ×4 per tier). Adjacent segments in the same tier are
// compaction candidates.
func sizeTier(bytes int) int {
	tier := 0
	for floor := 4096; bytes >= floor; floor *= 4 {
		tier++
	}
	return tier
}

// pickCompactionLocked returns the oldest run s.segments[lo:hi] of at least
// CompactionTrigger adjacent same-tier segments, or (-1, -1) when no run is
// eligible. Caller holds s.mu.
func (s *Store) pickCompactionLocked() (int, int) {
	n := len(s.segments)
	for lo := 0; lo < n; {
		tier := sizeTier(s.segments[lo].bytes)
		hi := lo + 1
		for hi < n && sizeTier(s.segments[hi].bytes) == tier {
			hi++
		}
		if hi-lo >= s.opts.CompactionTrigger {
			return lo, hi
		}
		lo = hi
	}
	return -1, -1
}

// compactionDebtLocked sums the bytes of every compaction-eligible run — the
// merge work currently outstanding. Caller holds s.mu.
func (s *Store) compactionDebtLocked() int64 {
	var debt int64
	n := len(s.segments)
	for lo := 0; lo < n; {
		tier := sizeTier(s.segments[lo].bytes)
		hi := lo + 1
		for hi < n && sizeTier(s.segments[hi].bytes) == tier {
			hi++
		}
		if hi-lo >= s.opts.CompactionTrigger {
			for i := lo; i < hi; i++ {
				debt += int64(s.segments[i].bytes)
			}
		}
		lo = hi
	}
	return debt
}

// updateWriteAmp refreshes the global write-amplification gauge from the
// byte counters (flush + compaction bytes per ingested byte, ×100).
func updateWriteAmp() {
	if in := mBytesIngested.Value(); in > 0 {
		mWriteAmp.Set((mBytesFlushed.Value() + mBytesCompacted.Value()) * 100 / in)
	}
}

// maybeCompactLocked starts the background compactor when work is eligible
// and none is running. Caller holds s.mu.
func (s *Store) maybeCompactLocked() {
	if s.compacting {
		return
	}
	if lo, _ := s.pickCompactionLocked(); lo < 0 {
		return
	}
	s.compacting = true
	go s.compactLoop()
}

// compactLoop merges eligible runs until none remain, then exits — a
// single-flight worker, re-launched by the flusher when new segments arrive.
func (s *Store) compactLoop() {
	s.mu.Lock()
	for {
		lo, hi := s.pickCompactionLocked()
		if lo < 0 {
			break
		}
		inputs := append([]*segment(nil), s.segments[lo:hi]...)
		id := s.nextSeg
		s.nextSeg++
		rate := s.opts.CompactionRate
		s.mu.Unlock()

		inBytes := 0
		for _, seg := range inputs {
			inBytes += seg.bytes
		}
		rate.Wait(inBytes)
		newestFirst := make([]*segment, len(inputs))
		for i := range inputs {
			newestFirst[i] = inputs[len(inputs)-1-i]
		}
		merged, err := compactSegments(id, newestFirst, s.segCfg)

		s.mu.Lock()
		if err != nil {
			// compactSegments only fails on a broken sort invariant; record
			// it where Sync surfaces maintenance failures and stop.
			s.flushErr = err
			break
		}
		s.spliceSegmentsLocked(inputs, merged)
		s.bgCompact++
		mBgCompactions.Inc()
		mBytesCompacted.Add(int64(merged.bytes))
		s.updateGaugesLocked()
		updateWriteAmp()
		s.cond.Broadcast()
	}
	s.compacting = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// spliceSegmentsLocked replaces the contiguous input run with the merged
// segment. Appends by flushers may have grown the tail since the pick, but
// only the single-flight compactor removes segments, so the run's position
// is found again by identity. Caller holds s.mu.
func (s *Store) spliceSegmentsLocked(inputs []*segment, merged *segment) {
	lo := -1
	for i, seg := range s.segments {
		if seg == inputs[0] {
			lo = i
			break
		}
	}
	out := make([]*segment, 0, len(s.segments)-len(inputs)+1)
	out = append(out, s.segments[:lo]...)
	out = append(out, merged)
	out = append(out, s.segments[lo+len(inputs):]...)
	s.segments = out
}

// RateLimiter is a token-bucket byte-rate limiter shared by the background
// compactors of every region store it is handed to. A nil *RateLimiter is
// valid and means unlimited.
type RateLimiter struct {
	mu          sync.Mutex
	bytesPerSec float64
	tokens      float64
	last        time.Time
}

// NewRateLimiter builds a limiter allowing bytesPerSec sustained throughput
// (with up to one second of burst). bytesPerSec <= 0 returns nil: unlimited.
func NewRateLimiter(bytesPerSec int) *RateLimiter {
	if bytesPerSec <= 0 {
		return nil
	}
	return &RateLimiter{bytesPerSec: float64(bytesPerSec), tokens: float64(bytesPerSec), last: time.Now()}
}

// Wait blocks until n bytes of budget are available, then consumes them.
func (l *RateLimiter) Wait(n int) {
	if l == nil || n <= 0 {
		return
	}
	l.mu.Lock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.bytesPerSec
	if l.tokens > l.bytesPerSec {
		l.tokens = l.bytesPerSec // burst cap: one second of budget
	}
	l.last = now
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.bytesPerSec * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}
