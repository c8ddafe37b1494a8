package pubsub

import (
	"modissense/internal/obs"
)

// Rejection reasons for pubsub_subscriptions_rejected_total. Constants so
// cmd/obs-lint can prove the label cardinality is bounded.
const (
	reasonCapacity  = "capacity"
	reasonUserQuota = "user_quota"
)

// Metric handles, resolved once at package init per the obs hot-path
// discipline. All registries share one process, so these live on
// obs.Default() and surface in GET /metrics.
var (
	mActive = obs.Default().Gauge("pubsub_subscriptions_active",
		"Live (unexpired) standing subscriptions in the registry.")
	mCreated = obs.Default().Counter("pubsub_subscriptions_created_total",
		"Subscriptions accepted by the registry.")
	mRemoved = obs.Default().Counter("pubsub_subscriptions_removed_total",
		"Subscriptions deleted by their owner.")
	mExpired = obs.Default().Counter("pubsub_subscriptions_expired_total",
		"Subscriptions reaped after their TTL elapsed.")
	mRejectedCapacity = obs.Default().Counter("pubsub_subscriptions_rejected_total",
		"Subscriptions refused at admission, by reason.",
		obs.L("reason", reasonCapacity))
	mRejectedQuota = obs.Default().Counter("pubsub_subscriptions_rejected_total",
		"Subscriptions refused at admission, by reason.",
		obs.L("reason", reasonUserQuota))
	mMatches = obs.Default().Counter("pubsub_matches_total",
		"Check-in/subscription matches produced by the incremental matcher.")
	mMatchSeconds = obs.Default().Histogram("pubsub_match_seconds",
		"Latency of matching one published batch of check-ins against the registry.",
		obs.LatencyBuckets())
	mDelivered = obs.Default().Counter("pubsub_events_delivered_total",
		"Matched events handed to a consumer (long-poll or SSE).")
	mDropped = obs.Default().Counter("pubsub_events_dropped_total",
		"Matched events evicted from full subscriber queues (drop-oldest).")
	mQueueDepth = obs.Default().Gauge("pubsub_queue_depth",
		"Matched events held in the rings of live subscriptions (ring occupancy; delivery does not free a slot).")
	mDeliverySeconds = obs.Default().Histogram("pubsub_delivery_seconds",
		"Publish-to-delivery latency of matched events.",
		obs.LatencyBuckets())
)

// countRejected bumps the rejection counter for the given reason.
func countRejected(reason string) {
	switch reason {
	case reasonCapacity:
		mRejectedCapacity.Inc()
	case reasonUserQuota:
		mRejectedQuota.Inc()
	}
}
