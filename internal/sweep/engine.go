package sweep

import (
	"fmt"
	"io"
	"sync"

	"collabscore"
	"collabscore/internal/baseline"
	"collabscore/internal/metrics"
	"collabscore/internal/par"
)

// Options configures a sweep run.
type Options struct {
	// Workers bounds the worker pool; ≤ 0 means up to GOMAXPROCS. Every
	// point builds its simulation on fresh allocations.
	Workers int
	// Sink, when non-nil, receives one JSONL line per completed point, as
	// points complete (schedule order; records themselves are order-
	// independent). Writes are serialized by the engine.
	Sink io.Writer
	// Done holds keys of points to skip — the resume set (RunFile fills it
	// from the output file's intact records).
	Done map[string]struct{}
	// ComputeOpt computes each planted point's exact optimum error
	// (Record.OptError) before running it. O(n²·m/64) per point — leave it
	// off for large throughput sweeps.
	ComputeOpt bool
	// Progress, when non-nil, is called after each completed point with the
	// number of points completed so far this run, the number scheduled, and
	// the point's record. Calls are serialized.
	Progress func(completed, scheduled int, rec Record)
	// Stop, when non-nil, makes the engine stop claiming new points once the
	// channel is closed: in-flight points finish and their records flush to
	// the sink, then Run returns the completed subset with no error. Together
	// with the JSONL sink this is what makes an interrupted sweep always
	// resumable — the tail is flushed, never torn mid-batch.
	Stop <-chan struct{}
	// OnFailure, when non-nil, receives each point that failed: a panic in
	// protocol code is recovered per point (it does not take down the
	// worker pool) and reported here. A point's run is deterministic, so a
	// point that panics once panics every time and is not retried. Failed
	// points produce no record and are excluded from Run's results. When
	// OnFailure is nil the sweep still completes every other point — the
	// failures are returned as one error at the end instead of silently
	// dropped. Calls are serialized.
	OnFailure func(pt Point, err error)
}

// PointError is the per-point failure OnFailure receives: the point's key
// and the recovered panic value.
type PointError struct {
	Key string
	// Panic is the recovered panic value.
	Panic any
}

func (e *PointError) Error() string {
	return fmt.Sprintf("sweep: point %s panicked: %v", e.Key, e.Panic)
}

// stopRequested reports whether the options' stop channel is closed.
func stopRequested(stop <-chan struct{}) bool {
	if stop == nil {
		return false
	}
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// Run executes every point not in opt.Done across the worker pool and
// returns the fresh records in point order. Results are deterministic per
// point (see the package comment); only completion order varies with the
// schedule. Malformed points (points that did not come from Expand and
// whose Point.Scenario fails) and sink write failures abort the run;
// panics in protocol code are recovered per point and surfaced through
// Options.OnFailure (or one aggregate error when it is nil) — never by
// crashing the pool. When Options.Stop closes mid-run the
// completed subset is returned with no error.
func Run(points []Point, opt Options) ([]Record, error) {
	pending := make([]int, 0, len(points))
	for i, pt := range points {
		if _, done := opt.Done[pt.Key()]; !done {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return nil, nil
	}

	var runner *par.Runner
	if opt.Workers > 0 {
		runner = par.Fixed(opt.Workers)
	} else {
		runner = par.Parallel()
	}
	recs := make([]Record, len(pending))
	ran := make([]bool, len(pending))
	errs := make([]error, len(pending))
	var mu sync.Mutex
	var sinkErr error
	var failures []*PointError
	completed := 0
	runner.For(len(pending), func(i int) {
		// A failed sink (disk full, closed file) makes every further
		// record unrecordable — stop burning CPU on points whose results
		// would be discarded and let the caller resume after fixing it.
		// A closed stop channel likewise stops new points from starting;
		// in-flight ones flush normally, keeping the output resumable.
		mu.Lock()
		abort := sinkErr != nil
		mu.Unlock()
		if abort || stopRequested(opt.Stop) {
			return
		}
		pt := points[pending[i]]
		rec, err := runPointRecover(pt, opt.ComputeOpt)
		if perr, ok := err.(*PointError); ok {
			mu.Lock()
			failures = append(failures, perr)
			if opt.OnFailure != nil {
				opt.OnFailure(pt, perr)
			}
			mu.Unlock()
			return
		}
		recs[i], ran[i], errs[i] = rec, err == nil, err
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if opt.Sink != nil && sinkErr == nil {
			sinkErr = WriteRecord(opt.Sink, rec)
		}
		completed++
		if opt.Progress != nil {
			opt.Progress(completed, len(pending), rec)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := recs[:0]
	for i, rec := range recs {
		if ran[i] {
			out = append(out, rec)
		}
	}
	if len(failures) > 0 && opt.OnFailure == nil && sinkErr == nil {
		// No failure hook: every other point has completed and flushed, so
		// surface the failures without discarding that work — the caller
		// still has a resumable file and the full error list.
		errFail := fmt.Errorf("sweep: %d point(s) failed", len(failures))
		for _, f := range failures {
			errFail = fmt.Errorf("%w; %v", errFail, f)
		}
		return out, errFail
	}
	return out, sinkErr
}

// runPointRecover runs one point with per-point panic containment: a panic
// in protocol code is recovered and returned as a *PointError.
func runPointRecover(pt Point, computeOpt bool) (rec Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PointError{Key: pt.Key(), Panic: r}
		}
	}()
	return runPoint(pt, computeOpt)
}

// runPoint executes one grid point. Rating points have no binary
// Simulation (and no planted-optimum oracle); they run through
// Scenario.Run directly.
func runPoint(pt Point, computeOpt bool) (Record, error) {
	sc, err := pt.Scenario()
	if err != nil {
		return Record{}, err
	}
	var rep *collabscore.Report
	optErr := -1
	if sc.Protocol == collabscore.ProtoRatings {
		rep = sc.Run()
	} else {
		sim := sc.Build(nil)
		// The planted-optimum oracle scans the materialized truth matrix;
		// lazy instances (Truth == nil) skip it — by design, the whole point
		// of the lazy representation is never holding that matrix.
		if computeOpt && sim.Instance().PlantedDiameter >= 0 && sim.Instance().Truth != nil {
			optErr = metrics.MaxInt(baseline.OptErrors(sim.Instance()))
		}
		rep = sc.Execute(sim)
	}
	return Record{
		Point:         pt,
		Key:           pt.Key(),
		MaxError:      rep.MaxError,
		MeanError:     rep.MeanError,
		MaxProbes:     rep.MaxProbes,
		MeanProbes:    rep.MeanProbes,
		TotalProbes:   rep.TotalProbes,
		OptError:      optErr,
		HonestLeaders: rep.HonestLeaders,
		Repetitions:   rep.Repetitions,
		CommWrites:    rep.CommWrites,
		CommReads:     rep.CommReads,
		Rounds:        rep.MaxProbes,
	}, nil
}
