package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"collabscore/internal/sweep"
)

// CoordinatorOptions configures a fleet coordinator. The zero value is
// usable: in-memory checkpointing, 15s leases, local fallback after 30s of
// silence.
type CoordinatorOptions struct {
	// LeaseTTL is the deadline horizon of every lease and heartbeat
	// extension; a worker silent for this long forfeits its points.
	// Default 15s.
	LeaseTTL time.Duration
	// MaxLeasePoints caps the points per grant regardless of what a worker
	// asks for. Default 8.
	MaxLeasePoints int
	// ComputeOpt mirrors sweep.Options.ComputeOpt: whether this sweep
	// records planted optima. It is sent to workers in every grant and
	// enforced on every record.
	ComputeOpt bool
	// Checkpoint is the JSONL path completed records stream to, in the
	// exact format sweep.RunFile writes — a crashed coordinator restarts
	// with Resume and the sweep.PlanFile planner (same stale-seed and
	// opt-change rejection, same torn-tail truncation) replays it. Empty
	// means in-memory only.
	Checkpoint string
	// Resume replays an existing checkpoint instead of truncating it.
	Resume bool
	// LocalGrace is how long the coordinator waits without hearing from any
	// worker before it starts running pending points itself (a fleet of
	// zero workers still finishes the grid). Negative disables the
	// fallback. Default 30s.
	LocalGrace time.Duration
	// LocalWorkers is the pool width of local-fallback runs (sweep
	// Options.Workers; ≤ 0 means GOMAXPROCS).
	LocalWorkers int
	// FailReports is how many per-worker persistent-failure reports a point
	// accumulates before the coordinator marks it failed and stops
	// re-dispatching it (each report is one failed run on that worker).
	// Default 2.
	FailReports int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxLeasePoints <= 0 {
		o.MaxLeasePoints = 8
	}
	if o.LocalGrace == 0 {
		o.LocalGrace = 30 * time.Second
	}
	if o.FailReports <= 0 {
		o.FailReports = 2
	}
	return o
}

// Coordinator owns the expanded grid, the lease queue, and the crash-safe
// checkpoint. It is driven by Run (or Serve) and answers the wire protocol
// through Handler.
type Coordinator struct {
	opt    CoordinatorOptions
	points []sweep.Point
	queue  *sweep.Queue

	mu           sync.Mutex
	sink         *os.File
	sinkClosed   bool
	lastActivity time.Time
	failCount    map[string]int

	done     chan struct{}
	doneOnce sync.Once
}

// NewCoordinator plans the checkpoint (dropping stale records, truncating a
// torn tail — sweep.PlanFile), seeds the lease queue with the surviving
// records, and opens the checkpoint for appending.
func NewCoordinator(points []sweep.Point, opt CoordinatorOptions) (*Coordinator, error) {
	opt = opt.withDefaults()
	c := &Coordinator{
		opt:          opt,
		points:       points,
		failCount:    make(map[string]int),
		done:         make(chan struct{}),
		lastActivity: time.Now(),
	}
	var prior []sweep.Record
	if opt.Checkpoint != "" {
		plan, err := sweep.PlanFile(points, opt.Checkpoint, opt.Resume, opt.ComputeOpt)
		if err != nil {
			return nil, err
		}
		f, err := plan.Open()
		if err != nil {
			return nil, err
		}
		c.sink = f
		prior = plan.Valid
	}
	q, err := sweep.NewQueue(points, prior, opt.ComputeOpt)
	if err != nil {
		if c.sink != nil {
			c.sink.Close()
		}
		return nil, err
	}
	c.queue = q
	if q.Done() {
		c.signalDone()
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opt.Logf != nil {
		c.opt.Logf(format, args...)
	}
}

// Queue exposes the underlying lease queue (tests drive lapses through it).
func (c *Coordinator) Queue() *sweep.Queue { return c.queue }

// Failed returns the keys of points the fleet gave up on.
func (c *Coordinator) Failed() []string { return c.queue.Failed() }

func (c *Coordinator) touch() {
	c.mu.Lock()
	c.lastActivity = time.Now()
	c.mu.Unlock()
}

func (c *Coordinator) idleFor() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Since(c.lastActivity)
}

func (c *Coordinator) signalDone() {
	c.doneOnce.Do(func() { close(c.done) })
}

// complete runs one record through the queue's exactly-once merge and, when
// it is fresh, appends it to the checkpoint (whole-line writes under the
// coordinator's mutex: a crash tears at most the tail, which the resume
// planner truncates away).
func (c *Coordinator) complete(rec sweep.Record) (fresh bool, err error) {
	fresh, err = c.queue.Complete(rec)
	if err != nil || !fresh {
		return fresh, err
	}
	c.mu.Lock()
	if c.sink != nil && !c.sinkClosed {
		err = sweep.WriteRecord(c.sink, rec)
	}
	c.mu.Unlock()
	if c.queue.Done() {
		c.signalDone()
	}
	return true, err
}

// fail accounts one persistent-failure report for key; after
// FailReports distinct reports the point is marked failed and leaves the
// dispatch cycle, otherwise it re-enters the queue for another worker.
func (c *Coordinator) fail(key string, final bool) error {
	c.mu.Lock()
	c.failCount[key]++
	n := c.failCount[key]
	c.mu.Unlock()
	var err error
	if final || n >= c.opt.FailReports {
		err = c.queue.Fail(key)
		c.logf("fleet: point %s failed persistently (%d reports), abandoned", key, n)
	} else {
		err = c.queue.Release(key)
		c.logf("fleet: point %s failed on a worker (report %d/%d), re-queued", key, n, c.opt.FailReports)
	}
	if c.queue.Done() {
		c.signalDone()
	}
	return err
}

func (c *Coordinator) closeSink() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sink == nil || c.sinkClosed {
		return nil
	}
	c.sinkClosed = true
	return c.sink.Close()
}

// Run drives the coordinator until the grid completes or ctx is canceled:
// a reaper ticker lapses overdue leases, and after LocalGrace without any
// worker contact the coordinator claims batches itself through the very
// same lease path (so local and remote execution merge identically). It
// returns the completed records in grid-point order; on cancellation the
// partial set plus ctx's error (the checkpoint holds the same records, so
// the sweep resumes).
func (c *Coordinator) Run(ctx context.Context) ([]sweep.Record, error) {
	reap := c.opt.LeaseTTL / 4
	if reap < 10*time.Millisecond {
		reap = 10 * time.Millisecond
	}
	tick := time.NewTicker(reap)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			c.closeSink()
			return c.queue.Records(), ctx.Err()
		case <-c.done:
			err := c.closeSink()
			return c.queue.Records(), err
		case <-tick.C:
			if n := c.queue.Expire(); n > 0 {
				c.logf("fleet: %d point(s) from lapsed leases re-queued", n)
			}
			if c.queue.Done() {
				c.signalDone()
				continue
			}
			if c.opt.LocalGrace >= 0 && c.idleFor() >= c.opt.LocalGrace {
				c.runLocal(ctx)
			}
		}
	}
}

// runLocal claims and runs pending batches on the coordinator's own pool
// until the grid drains, a worker makes contact again, or ctx cancels.
func (c *Coordinator) runLocal(ctx context.Context) {
	for ctx.Err() == nil {
		if c.opt.LocalGrace >= 0 && c.idleFor() < c.opt.LocalGrace {
			return // a worker showed up; let the fleet have the points
		}
		ls, ok := c.queue.Lease("coordinator-local", c.opt.MaxLeasePoints, c.opt.LeaseTTL)
		if !ok {
			return
		}
		c.logf("fleet: no worker contact for %s — running %d point(s) locally", c.opt.LocalGrace, len(ls.Points))
		var firstErr error
		_, err := sweep.Run(ls.Points, sweep.Options{
			Workers:    c.opt.LocalWorkers,
			ComputeOpt: c.opt.ComputeOpt,
			Stop:       ctx.Done(),
			OnFailure: func(pt sweep.Point, err error) {
				// Local execution is the authority of last resort: a point
				// that panics here is abandoned outright.
				c.fail(pt.Key(), true)
			},
			Progress: func(completed, scheduled int, rec sweep.Record) {
				if _, err := c.complete(rec); err != nil && firstErr == nil {
					firstErr = err
				}
				// Keep the local lease alive across long batches; a lapse
				// would only cause harmless duplicate dispatch, but there is
				// no reason to invite it.
				c.queue.Heartbeat(ls.ID, c.opt.LeaseTTL)
			},
		})
		if err != nil {
			c.logf("fleet: local run: %v", err)
			return
		}
		if firstErr != nil {
			c.logf("fleet: local run: %v", firstErr)
			return
		}
	}
}

// Serve listens on addr (host:port; port 0 picks a free one), announces the
// bound address through ready (when non-nil), serves the protocol, and
// runs the coordinator loop until the grid completes or ctx cancels.
func (c *Coordinator) Serve(ctx context.Context, addr string, ready func(addr string)) ([]sweep.Record, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	// A coordinator is a long-lived listener on an open port, so cap how
	// long a connection may dribble headers (slowloris) or sit idle; the
	// protocol's requests are tiny (maxBody), so generous read/idle caps
	// cost nothing legitimate.
	srv := &http.Server{
		Handler:           c.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	recs, err := c.Run(ctx)
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if srv.Shutdown(shutCtx) != nil {
		srv.Close()
	}
	// Serve always returns once the listener closes; surface a real serve
	// failure (bad listener, accept loop death) instead of dropping it —
	// without clobbering the run's own error.
	if se := <-serveErr; se != nil && !errors.Is(se, http.ErrServerClosed) {
		if err == nil {
			err = fmt.Errorf("fleet: serve: %w", se)
		} else {
			c.logf("fleet: serve: %v", se)
		}
	}
	return recs, err
}

// Handler returns the coordinator's HTTP protocol surface. Every handler
// decodes with a bounded reader and answers malformed input with a 4xx —
// never a panic (FuzzLeaseProtocol) — so a misbehaving worker cannot take
// the fleet down.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /complete", c.handleComplete)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /status", c.handleStatus)
	return mux
}

// maxBody bounds request bodies: the largest legal message is a
// CompleteRequest holding one record (well under a kilobyte).
const maxBody = 1 << 20

func decode[T any](w http.ResponseWriter, r *http.Request, into *T) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	c.touch()
	if c.queue.Done() {
		reply(w, LeaseGrant{Done: true})
		return
	}
	max := req.Max
	if max <= 0 || max > c.opt.MaxLeasePoints {
		max = c.opt.MaxLeasePoints
	}
	ls, ok := c.queue.Lease(req.Worker, max, c.opt.LeaseTTL)
	if !ok {
		reply(w, LeaseGrant{Done: c.queue.Done(), Wait: !c.queue.Done()})
		return
	}
	c.logf("fleet: leased %d point(s) to %s (lease %d)", len(ls.Points), req.Worker, ls.ID)
	reply(w, LeaseGrant{
		LeaseID:    ls.ID,
		Points:     ls.Points,
		TTLMillis:  c.opt.LeaseTTL.Milliseconds(),
		ComputeOpt: c.opt.ComputeOpt,
	})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decode(w, r, &req) {
		return
	}
	c.touch()
	switch {
	case req.Record != nil:
		fresh, err := c.complete(*req.Record)
		switch {
		case errors.Is(err, sweep.ErrConflict):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			reply(w, CompleteResponse{OK: true, Duplicate: !fresh, Done: c.queue.Done()})
		}
	case req.Failed != "":
		if err := c.fail(req.Failed, false); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(w, CompleteResponse{OK: true, Done: c.queue.Done()})
	default:
		http.Error(w, "fleet: complete request needs a record or a failed key", http.StatusBadRequest)
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	c.touch()
	deadline, ok := c.queue.Heartbeat(req.LeaseID, c.opt.LeaseTTL)
	if !ok {
		reply(w, HeartbeatResponse{OK: false})
		return
	}
	reply(w, HeartbeatResponse{OK: true, TTLMillis: time.Until(deadline).Milliseconds()})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	pending, leased, done, failed := c.queue.Counts()
	reply(w, Status{
		Total:    len(c.points),
		Pending:  pending,
		Leased:   leased,
		Done:     done,
		Failed:   failed,
		Complete: c.queue.Done(),
	})
}
