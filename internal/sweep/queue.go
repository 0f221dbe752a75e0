package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// Queue errors. ErrConflict is the integrity violation a duplicate
// completion with a DIFFERENT record raises: every record is a pure
// function of its point's seed and coordinates, so two honest runs of the
// same point are byte-identical — a mismatch means a worker ran a stale
// grid, a different build, or corrupted the record in flight, and accepting
// either copy would silently poison the output.
var (
	ErrConflict     = errors.New("sweep: conflicting record for completed point")
	ErrUnknownPoint = errors.New("sweep: record for a point not in this grid")
	ErrStaleRecord  = errors.New("sweep: record does not match the point it claims to complete")
)

// Queue is the lease queue distributed sweeps coordinate through (DESIGN.md
// §15): every grid point moves pending → leased → done, where leases carry
// deadlines and lapse back to pending when their holder stops heartbeating.
// Dispatch is therefore at-least-once — the same point can run on two
// workers after a lapse — and Complete makes the output exactly-once by
// key-deduplicated merging that asserts identical records on duplicates.
// All methods are safe for concurrent use.
type Queue struct {
	mu         sync.Mutex
	points     []Point
	index      map[string]int // key → points index
	state      []pointState
	pending    []int // point indices awaiting a lease, FIFO; lapses re-queue here
	holder     []uint64
	leases     map[uint64]*queueLease
	nextID     uint64
	records    map[string]Record
	failed     []string
	computeOpt bool
	now        func() time.Time
}

type pointState uint8

const (
	statePending pointState = iota
	stateLeased
	stateDone
	stateFailed
)

type queueLease struct {
	worker   string
	keys     []string
	deadline time.Time
}

// Lease is one granted batch: the points the holder may run and the
// deadline by which it must Complete them or Heartbeat to extend.
type Lease struct {
	ID       uint64
	Points   []Point
	Deadline time.Time
}

// NewQueue builds the queue over the grid with the given prior records
// (e.g. a resumed checkpoint's FilePlan.Valid) already completed. Each
// prior record passes through the same validation as a live completion;
// computeOpt fixes the opt-consistency rule records are checked against.
func NewQueue(points []Point, prior []Record, computeOpt bool) (*Queue, error) {
	q := &Queue{
		points:     points,
		index:      make(map[string]int, len(points)),
		state:      make([]pointState, len(points)),
		holder:     make([]uint64, len(points)),
		leases:     make(map[uint64]*queueLease),
		records:    make(map[string]Record, len(points)),
		computeOpt: computeOpt,
		now:        time.Now,
	}
	for i, pt := range points {
		k := pt.Key()
		if _, dup := q.index[k]; dup {
			return nil, fmt.Errorf("sweep: duplicate point %s in queue grid", k)
		}
		q.index[k] = i
		q.pending = append(q.pending, i)
	}
	for _, rec := range prior {
		if _, err := q.Complete(rec); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// SetClock replaces the queue's time source (tests drive lease lapses
// deterministically with a fake clock).
func (q *Queue) SetClock(now func() time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.now = now
}

// Lease grants up to max pending points to worker for ttl. It returns
// ok = false when nothing is pending right now — either the grid is done
// or every remaining point is out on an unexpired lease (callers poll
// again; Done distinguishes the cases). Lapsed leases are expired first,
// so a dead worker's points are re-grantable the moment their deadline
// passes.
func (q *Queue) Lease(worker string, max int, ttl time.Duration) (Lease, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	if max < 1 {
		max = 1
	}
	if len(q.pending) == 0 {
		return Lease{}, false
	}
	n := min(max, len(q.pending))
	q.nextID++
	ql := &queueLease{worker: worker, deadline: q.now().Add(ttl)}
	ls := Lease{ID: q.nextID, Deadline: ql.deadline}
	for _, i := range q.pending[:n] {
		q.state[i] = stateLeased
		q.holder[i] = q.nextID
		ql.keys = append(ql.keys, q.points[i].Key())
		ls.Points = append(ls.Points, q.points[i])
	}
	q.pending = q.pending[n:]
	q.leases[q.nextID] = ql
	return ls, true
}

// Heartbeat extends the lease's deadline by ttl from now. It returns
// false when the lease has already lapsed (or never existed) — the holder
// should abandon the batch and request a fresh lease; any records it still
// sends remain acceptable through Complete's deduplication.
func (q *Queue) Heartbeat(id uint64, ttl time.Duration) (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked()
	ql, ok := q.leases[id]
	if !ok {
		return time.Time{}, false
	}
	ql.deadline = q.now().Add(ttl)
	return ql.deadline, true
}

// Expire lapses every lease past its deadline, re-queueing its unfinished
// points, and returns how many points re-entered the pending queue. The
// coordinator's reaper calls it on a ticker; Lease and Heartbeat also
// expire lazily.
func (q *Queue) Expire() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked()
}

func (q *Queue) expireLocked() int {
	now := q.now()
	requeued := 0
	for id, ql := range q.leases {
		if !ql.deadline.Before(now) {
			continue
		}
		for _, k := range ql.keys {
			i := q.index[k]
			if q.state[i] == stateLeased && q.holder[i] == id {
				q.state[i] = statePending
				q.holder[i] = 0
				q.pending = append(q.pending, i)
				requeued++
			}
		}
		delete(q.leases, id)
	}
	return requeued
}

// Complete records one finished point, idempotently. The record must name a
// point of this grid and match it exactly — same key-derived coordinates,
// same seed, and opt_error presence matching the queue's computeOpt rule
// (the wire-level twin of RunFile's stale-record rejection). A duplicate
// completion is legal only when the record equals the stored one
// (fresh = false); a mismatch is ErrConflict. Completion does not require a
// live lease: a worker whose lease lapsed mid-run may still deliver its
// records, and deduplication keeps the output exactly-once.
func (q *Queue) Complete(rec Record) (fresh bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, ok := q.index[rec.Key]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownPoint, rec.Key)
	}
	pt := q.points[i]
	// Records arrive over the wire without Index (it is not serialized);
	// normalize to the grid's so stored records equal a single-process run's.
	rec.Index = pt.Index
	if rec.Point.Key() != rec.Key {
		return false, fmt.Errorf("%w: %s (coordinates do not re-derive the key)", ErrStaleRecord, rec.Key)
	}
	if rec.Seed != pt.Seed {
		return false, fmt.Errorf("%w: %s (seed %d, grid wants %d)", ErrStaleRecord, rec.Key, rec.Seed, pt.Seed)
	}
	if wantsOpt(pt, q.computeOpt) != (rec.OptError >= 0) {
		return false, fmt.Errorf("%w: %s (opt_error presence does not match this sweep's options)", ErrStaleRecord, rec.Key)
	}
	switch q.state[i] {
	case stateDone:
		if !reflect.DeepEqual(q.records[rec.Key], rec) {
			return false, fmt.Errorf("%w: %s", ErrConflict, rec.Key)
		}
		return false, nil
	case stateFailed:
		// A late success beats an earlier failure verdict: the record is
		// valid, so keep it.
		q.failed = removeKey(q.failed, rec.Key)
	case statePending:
		q.pending = removeIndex(q.pending, i)
	}
	q.state[i] = stateDone
	q.holder[i] = 0
	q.records[rec.Key] = rec
	return true, nil
}

// Release returns a leased point to the pending queue immediately — a
// holder reporting it will not complete the batch (e.g. one failure report
// short of abandoning the point). Done, failed, and already-pending points
// are left untouched.
func (q *Queue) Release(key string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, ok := q.index[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPoint, key)
	}
	if q.state[i] == stateLeased {
		q.state[i] = statePending
		q.holder[i] = 0
		q.pending = append(q.pending, i)
	}
	return nil
}

// Fail marks a point as persistently failed (its runner panicked on
// several holders), removing it from dispatch so the grid can finish
// around it. Failing an already-done point is a no-op.
func (q *Queue) Fail(key string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	i, ok := q.index[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPoint, key)
	}
	switch q.state[i] {
	case stateDone, stateFailed:
		return nil
	case statePending:
		q.pending = removeIndex(q.pending, i)
	}
	q.state[i] = stateFailed
	q.holder[i] = 0
	q.failed = append(q.failed, key)
	return nil
}

// Done reports whether every point has completed or failed — no pending
// points and no outstanding leased work.
func (q *Queue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, st := range q.state {
		if st == statePending || st == stateLeased {
			return false
		}
	}
	return true
}

// Counts returns the number of points in each state.
func (q *Queue) Counts() (pending, leased, done, failed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, st := range q.state {
		switch st {
		case statePending:
			pending++
		case stateLeased:
			leased++
		case stateDone:
			done++
		case stateFailed:
			failed++
		}
	}
	return
}

// Records returns the completed records in grid-point order (failed and
// not-yet-completed points are absent).
func (q *Queue) Records() []Record {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Record, 0, len(q.records))
	for i, pt := range q.points {
		if q.state[i] == stateDone {
			out = append(out, q.records[pt.Key()])
		}
	}
	return out
}

// Failed returns the keys of persistently failed points.
func (q *Queue) Failed() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]string(nil), q.failed...)
}

func removeIndex(xs []int, x int) []int {
	for j, v := range xs {
		if v == x {
			return append(xs[:j], xs[j+1:]...)
		}
	}
	return xs
}

func removeKey(xs []string, x string) []string {
	for j, v := range xs {
		if v == x {
			return append(xs[:j], xs[j+1:]...)
		}
	}
	return xs
}
