// Package fleet distributes a sweep grid across worker processes with a
// lease-based coordinator/worker protocol over HTTP (DESIGN.md §15). The
// coordinator expands the grid once and hands out point leases; workers run
// leased points through the sweep engine and stream records back.
// Robustness is the design center: leases carry deadlines and lapse when a
// worker stops heartbeating (its points silently re-enter the queue —
// at-least-once dispatch made exactly-once in the output by the queue's
// idempotent, key-deduplicated merge), workers retry coordinator calls with
// capped exponential backoff and deterministic jitter, the coordinator
// checkpoints completed records to the torn-tail-tolerant JSONL format so
// its own crashes resume through the sweep.PlanFile planner unchanged, and
// a coordinator that never hears from a worker finishes the grid locally.
// internal/fleet/faultinject provides the chaos harness the protocol is
// tested under.
package fleet

import "collabscore/internal/sweep"

// Wire messages. Every request is a JSON POST; responses are JSON. The
// coordinator decodes with a bounded reader and treats any malformed body
// as a 400 — worker input must never be able to panic it (FuzzLeaseProtocol
// pins this).

// LeaseRequest asks the coordinator for a batch of points.
type LeaseRequest struct {
	// Worker is a display name for logs and /status; it carries no
	// authority (leases are identified by ID, not holder).
	Worker string `json:"worker"`
	// Max bounds the batch size; the coordinator may grant fewer.
	Max int `json:"max"`
}

// LeaseGrant is the coordinator's answer: a batch to run, "come back
// later", or "the grid is finished".
type LeaseGrant struct {
	// Done means every point is complete (or failed): the worker should
	// exit. When Done is set no other field is meaningful.
	Done bool `json:"done,omitempty"`
	// Wait means nothing is pending right now — every remaining point is
	// out on a live lease. The worker should poll again after a backoff.
	Wait bool `json:"wait,omitempty"`

	LeaseID uint64 `json:"lease_id,omitempty"`
	// Points are the granted points, seeds included — the worker runs
	// exactly these, it never re-derives them.
	Points []sweep.Point `json:"points,omitempty"`
	// TTLMillis is the lease's deadline horizon; the worker heartbeats at a
	// fraction of it.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// ComputeOpt tells the worker whether this sweep records planted
	// optima (the coordinator's setting; records that disagree with it are
	// rejected as stale).
	ComputeOpt bool `json:"compute_opt,omitempty"`
}

// CompleteRequest delivers one finished point — or reports one that
// failed on this worker (Failed set, Record nil).
type CompleteRequest struct {
	Worker  string `json:"worker"`
	LeaseID uint64 `json:"lease_id"`
	// Record is the completed record. Exactly one of Record and Failed is
	// set.
	Record *sweep.Record `json:"record,omitempty"`
	// Failed is the key of a point whose runner panicked on this worker.
	Failed string `json:"failed,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	OK bool `json:"ok"`
	// Duplicate is set when the record was already known (and identical —
	// a conflicting duplicate is a 409, not a response).
	Duplicate bool `json:"duplicate,omitempty"`
	// Done mirrors LeaseGrant.Done so workers learn the grid finished
	// without another round trip.
	Done bool `json:"done,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	Worker  string `json:"worker"`
	LeaseID uint64 `json:"lease_id"`
}

// HeartbeatResponse reports whether the lease is still live. OK = false
// means it lapsed: the holder's points are back in the queue and it should
// stop the batch when convenient (records it still delivers are accepted
// and deduplicated) and request a fresh lease.
type HeartbeatResponse struct {
	OK        bool  `json:"ok"`
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// Status is the coordinator's /status payload.
type Status struct {
	Total    int  `json:"total"`
	Pending  int  `json:"pending"`
	Leased   int  `json:"leased"`
	Done     int  `json:"done"`
	Failed   int  `json:"failed"`
	Complete bool `json:"complete"`
}
