package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"collabscore/internal/sweep"
	"collabscore/internal/xrand"
)

// ErrCoordinatorGone is the clean-exit sentinel RunWorker returns when the
// coordinator stays unreachable through the full retry budget. It is the
// normal way a fleet winds down — the coordinator finishes the grid and
// stops serving — so callers treat it as success with a note, not a crash.
var ErrCoordinatorGone = errors.New("fleet: coordinator unreachable, worker exiting cleanly")

// WorkerOptions configures a fleet worker.
type WorkerOptions struct {
	// URL is the coordinator's base URL (http://host:port).
	URL string
	// Name labels this worker in coordinator logs.
	Name string
	// PoolWorkers is the width of the local sweep pool each leased batch
	// runs on (sweep.Options.Workers; ≤ 0 means GOMAXPROCS).
	PoolWorkers int
	// Batch is the number of points requested per lease. Default 4.
	Batch int
	// Client issues the HTTP calls; tests swap in a faultinject transport.
	// Default: a client with a 30s timeout.
	Client *http.Client
	// BackoffBase/BackoffCap bound the capped exponential retry backoff:
	// attempt k sleeps min(cap, base·2^k), scaled by deterministic jitter in
	// [0.5, 1) drawn from Seed. Defaults 50ms / 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxRetries is the consecutive-failure budget for any one call before
	// the worker concludes the coordinator is gone. Default 8.
	MaxRetries int
	// Seed drives the jitter stream — same seed, same retry schedule
	// (deterministic backoff is what makes chaos runs reproducible).
	Seed uint64
	// Stop, when non-nil and closed, makes the worker stop leasing new
	// batches, let its in-flight points flush, and exit cleanly.
	Stop <-chan struct{}
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Batch <= 0 {
		o.Batch = 4
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 5 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 8
	}
	return o
}

// WorkerStats summarizes a worker's session.
type WorkerStats struct {
	// Completed counts records this worker delivered fresh (accepted,
	// not duplicates of another worker's).
	Completed int
	// Duplicates counts records the coordinator already had — the visible
	// footprint of at-least-once dispatch.
	Duplicates int
	// Leases counts granted leases; Retries counts retried HTTP calls.
	Leases  int
	Retries int
	// Failures counts points whose runner panicked on this worker
	// (reported to the coordinator).
	Failures int
}

type worker struct {
	opt   WorkerOptions
	rng   *xrand.Stream
	stats WorkerStats
	// gridDone is set when a CompleteResponse reports the grid finished, so
	// the worker exits without racing the coordinator's shutdown on one
	// more /lease poll.
	gridDone bool
}

// RunWorker leases batches from the coordinator at opt.URL and runs them on
// the sweep engine until the grid is done (nil error), Stop closes
// (nil error), or the coordinator stays unreachable through the retry
// budget (ErrCoordinatorGone). Any other error is a protocol-level
// integrity failure (e.g. the coordinator rejected a record as
// conflicting), which no amount of retrying can fix.
func RunWorker(opt WorkerOptions) (WorkerStats, error) {
	opt = opt.withDefaults()
	w := &worker{opt: opt, rng: xrand.New(opt.Seed)}
	err := w.run()
	return w.stats, err
}

func (w *worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

func (w *worker) stopped() bool {
	if w.opt.Stop == nil {
		return false
	}
	select {
	case <-w.opt.Stop:
		return true
	default:
		return false
	}
}

// backoff sleeps the capped exponential delay for the given consecutive
// attempt with deterministic jitter in [0.5, 1).
func (w *worker) backoff(attempt int) {
	d := w.opt.BackoffBase << min(attempt, 30)
	if d > w.opt.BackoffCap || d <= 0 {
		d = w.opt.BackoffCap
	}
	jitter := 0.5 + 0.5*w.rng.Float64()
	time.Sleep(time.Duration(float64(d) * jitter))
}

// post issues one JSON POST with retries. A transport error or 5xx retries
// up to MaxRetries consecutive times (ErrCoordinatorGone after); a 4xx is a
// protocol rejection returned to the caller verbatim.
func (w *worker) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			w.stats.Retries++
			w.backoff(attempt - 1)
			if w.stopped() {
				return ErrCoordinatorGone
			}
		}
		if attempt > w.opt.MaxRetries {
			return ErrCoordinatorGone
		}
		hr, err := w.opt.Client.Post(w.opt.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			w.logf("fleet: %s: %v (attempt %d/%d)", path, err, attempt+1, w.opt.MaxRetries+1)
			continue
		}
		payload, rerr := io.ReadAll(io.LimitReader(hr.Body, maxBody))
		hr.Body.Close()
		switch {
		case hr.StatusCode >= 500 || rerr != nil:
			w.logf("fleet: %s: HTTP %d (attempt %d/%d)", path, hr.StatusCode, attempt+1, w.opt.MaxRetries+1)
			continue
		case hr.StatusCode != http.StatusOK:
			return fmt.Errorf("fleet: %s rejected: %s", path, strings.TrimSpace(string(payload)))
		}
		return json.Unmarshal(payload, resp)
	}
}

func (w *worker) run() error {
	for {
		if w.stopped() {
			return nil
		}
		var grant LeaseGrant
		if err := w.post("/lease", LeaseRequest{Worker: w.opt.Name, Max: w.opt.Batch}, &grant); err != nil {
			return err
		}
		switch {
		case grant.Done:
			w.logf("fleet: grid complete, exiting")
			return nil
		case grant.Wait || len(grant.Points) == 0:
			// Everything pending is out on other leases; poll again after a
			// capped-backoff beat (lapses may hand us their points).
			w.backoff(2)
			continue
		}
		w.stats.Leases++
		if err := w.runBatch(grant); err != nil {
			return err
		}
		if w.gridDone {
			w.logf("fleet: grid complete, exiting")
			return nil
		}
	}
}

// runBatch executes one leased batch on the sweep engine, streaming each
// record to /complete as it finishes and heartbeating the lease from a
// side goroutine. A lapsed lease does not abort the batch — the records
// remain deliverable and the queue deduplicates — but it is logged.
func (w *worker) runBatch(grant LeaseGrant) error {
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 15 * time.Second
	}
	stopBeat := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		w.heartbeatLoop(grant.LeaseID, ttl, stopBeat)
	}()
	defer func() {
		close(stopBeat)
		<-beatDone
	}()

	var firstErr error
	deliver := func(req CompleteRequest) {
		if firstErr != nil {
			return
		}
		req.Worker, req.LeaseID = w.opt.Name, grant.LeaseID
		var resp CompleteResponse
		if err := w.post("/complete", req, &resp); err != nil {
			firstErr = err
			return
		}
		if resp.Duplicate {
			w.stats.Duplicates++
		} else if req.Record != nil {
			w.stats.Completed++
		}
		if resp.Done {
			w.gridDone = true
		}
	}
	_, err := sweep.Run(grant.Points, sweep.Options{
		Workers:    w.opt.PoolWorkers,
		ComputeOpt: grant.ComputeOpt,
		Stop:       w.opt.Stop,
		Progress: func(completed, scheduled int, rec sweep.Record) {
			deliver(CompleteRequest{Record: &rec})
		},
		OnFailure: func(pt sweep.Point, err error) {
			w.logf("fleet: %v", err)
			w.stats.Failures++
			deliver(CompleteRequest{Failed: pt.Key()})
		},
	})
	if err != nil {
		return err
	}
	return firstErr
}

// heartbeatLoop extends the lease at a third of its TTL until the batch
// finishes. Each beat is a single attempt — a dropped beat is simply
// retried by the next tick, and a fully lapsed lease only causes duplicate
// dispatch, which the queue's merge absorbs. (Single attempts also keep
// this goroutine off the retry/jitter state the batch goroutine owns.)
func (w *worker) heartbeatLoop(leaseID uint64, ttl time.Duration, stop <-chan struct{}) {
	beat := ttl / 3
	if beat < 5*time.Millisecond {
		beat = 5 * time.Millisecond
	}
	body, _ := json.Marshal(HeartbeatRequest{Worker: w.opt.Name, LeaseID: leaseID})
	t := time.NewTicker(beat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			hr, err := w.opt.Client.Post(w.opt.URL+"/heartbeat", "application/json", bytes.NewReader(body))
			if err != nil {
				continue
			}
			var resp HeartbeatResponse
			derr := json.NewDecoder(io.LimitReader(hr.Body, maxBody)).Decode(&resp)
			hr.Body.Close()
			if derr == nil && hr.StatusCode == http.StatusOK && !resp.OK {
				w.logf("fleet: lease %d lapsed (slow batch?); records will still be delivered and deduplicated", leaseID)
				return
			}
		}
	}
}
