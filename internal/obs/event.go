// Package obs is the process-wide observability layer behind the serving
// stack (DESIGN.md §11): a bounded fan-out event Bus carrying typed
// lifecycle events with monotonic sequence numbers, per-job event traces,
// SSE serving and parsing, a Prometheus-text metrics Registry, and
// runtime-sourced gauges. The service, store, and router publish into one
// Bus per process; cmd/ecssd and cmd/ecssrouter expose it at /v1/events
// (firehose), /v1/jobs/{id}/stream (per-job SSE), /v1/jobs/{id}/trace
// (ordered span timeline), and /metrics.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Event types. The taxonomy is part of the operational API: names are
// dotted <subsystem>.<what>, stable across releases, and every event a
// subsystem acknowledges having processed is replayable from its trace.
const (
	// Job lifecycle (service). Admitted/started/stage/retry narrate a solve
	// (job.stage fires when a pipeline stage completes, carrying its wall
	// time and engine cost); done/failed/expired/shed/canceled are
	// terminal; cached marks a
	// submission served without a solve (memory cache or disk store — the
	// job is terminal the moment it exists); coalesced marks a submission
	// attached to an identical in-flight job.
	EvJobAdmitted  = "job.admitted"
	EvJobStarted   = "job.started"
	EvJobStage     = "job.stage"
	EvJobRetry     = "job.retry"
	EvJobDone      = "job.done"
	EvJobFailed    = "job.failed"
	EvJobExpired   = "job.expired"
	EvJobShed      = "job.shed"
	EvJobCanceled  = "job.canceled"
	EvJobCached    = "job.cached"
	EvJobCoalesced = "job.coalesced"

	// Result store. store.evict names each removed key; store.evict_pressure
	// summarizes one eviction pass (Bytes reclaimed, Count victims, Budget
	// enforced) so byte-pressure cycling is one event, not N.
	EvStoreWrite         = "store.write"
	EvStoreWriteError    = "store.write_error"
	EvStoreEvict         = "store.evict"
	EvStoreEvictPressure = "store.evict_pressure"
	EvStoreQuarantine    = "store.quarantine"
	EvStoreRestore       = "store.restore"
	EvStoreReverifyDrop  = "store.reverify_delete"

	// Routing tier.
	EvRouterRetry          = "router.retry"
	EvRouterEject          = "router.eject"
	EvRouterShardDrain     = "router.shard_drain"
	EvRouterShardRecovered = "router.shard_recovered"
	EvRouterNoShard        = "router.no_shard"
	EvRouterDrain          = "router.drain"

	// Process-level.
	EvServiceDrain = "service.drain"
)

// Event is one observable occurrence. Seq is assigned by the publishing
// Bus and is strictly monotonic per process; a router republishing a
// shard's events re-stamps Seq on its own bus and preserves the original
// in ShardSeq, tagged with Shard.
type Event struct {
	Seq  uint64    `json:"seq"`
	TS   time.Time `json:"ts"`
	Type string    `json:"type"`

	// Job is the (shard-local) job id the event belongs to, when any.
	Job string `json:"job,omitempty"`
	// Req is the request id minted at admission or propagated from the
	// router via the X-ECSS-Request-Id header: every event of one client
	// request — including every retried attempt of a forward — shares it.
	Req string `json:"req,omitempty"`
	// Shard tags router-aggregated events with the origin shard's address;
	// ShardSeq preserves the shard bus's own sequence number.
	Shard    string `json:"shard,omitempty"`
	ShardSeq uint64 `json:"shard_seq,omitempty"`

	// Stage is the pipeline stage for job.stage events.
	Stage string `json:"stage,omitempty"`
	// Key is a content-address prefix (store and admission events).
	Key string `json:"key,omitempty"`
	// Class is the admission priority class of job events.
	Class string `json:"class,omitempty"`
	// Err carries the failure cause of *_error / failed / expired events.
	Err string `json:"error,omitempty"`
	// MS is a duration in milliseconds where one is meaningful (job.done,
	// job.failed: solve wall time; job.stage: the completed stage's wall
	// time).
	MS float64 `json:"ms,omitempty"`
	// Bytes, Count, and Budget carry the numeric payload of summary events
	// (store.evict_pressure: bytes reclaimed, entries evicted, byte budget).
	Bytes  int64 `json:"bytes,omitempty"`
	Count  int   `json:"count,omitempty"`
	Budget int64 `json:"budget,omitempty"`
	// Rounds and Msgs carry the engine cost dimension of job.stage (the
	// completed stage's simulated+charged rounds and delivered messages)
	// and job.done events (whole-solve totals) — the paper's own CONGEST
	// cost measures surfaced on the firehose.
	Rounds int64 `json:"rounds,omitempty"`
	Msgs   int64 `json:"msgs,omitempty"`
	// Terminal marks the event that ends a job's lifecycle; a per-job SSE
	// stream closes after relaying it.
	Terminal bool `json:"terminal,omitempty"`
}

// RequestIDHeader is the HTTP header carrying the request id end to end:
// minted by whichever tier sees the request first (router or shard),
// stamped on every event and every retried backend attempt, and
// echoed on the response.
const RequestIDHeader = "X-ECSS-Request-Id"

// ShardHeader is set by the router on relayed responses to name the shard
// whose attempt won.
const ShardHeader = "X-ECSS-Shard"

// NewRequestID mints a 16-hex-char random request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// time-derived id rather than panicking on an exotic one.
		now := uint64(time.Now().UnixNano())
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}
