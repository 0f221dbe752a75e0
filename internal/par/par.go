// Package par provides the small worker-pool primitives used to parallelize
// per-player and per-object protocol phases across CPU cores.
//
// The paper's protocols are "every player does X" loops with no data
// dependencies inside a phase; phases themselves act as barriers. For is the
// workhorse: it splits an index range into contiguous chunks and runs them on
// up to GOMAXPROCS goroutines.
//
// Two parallelism layers use these primitives (DESIGN.md §9): the Byzantine
// repetitions of core.RunByzantine fan out on the package-level For, while
// the intra-repetition phase loops go through a Runner threaded on
// world.Run, so a whole protocol execution can be pinned to the serial
// reference schedule (core.Params.PhaseSerial) without touching its callers.
package par

import (
	"runtime"
	"sync"
)

// Runner is an execution policy for phase loops: parallel (the default),
// strictly serial (the reference schedule determinism tests compare
// against), or a fixed worker count (race tests force real goroutines even
// on a single-core host). The zero value and a nil *Runner both behave like
// Parallel, so code paths that never configured an executor keep their
// historical behavior.
//
// Every Runner schedule must produce identical results for loop bodies that
// are pure functions of their index — the determinism contract of
// DESIGN.md §9. Runners are stateless and safe for concurrent use.
type Runner struct {
	// workers is the worker-count policy: 0 = runtime.GOMAXPROCS(0),
	// 1 = serial in-place execution, >1 = exactly that many goroutines.
	workers int
}

var (
	parallelRunner = Runner{}
	serialRunner   = Runner{workers: 1}
)

// Parallel returns the default executor: up to GOMAXPROCS(0) workers.
func Parallel() *Runner { return &parallelRunner }

// Serial returns the single-threaded reference executor: every loop runs
// in index order on the calling goroutine. Fixed-seed protocol output under
// Serial is byte-identical to any parallel schedule (DESIGN.md §9);
// core.Params.PhaseSerial selects it for whole runs.
func Serial() *Runner { return &serialRunner }

// Fixed returns an executor whose For/ForWorker loops use exactly the
// given number of worker goroutines, even when it exceeds GOMAXPROCS.
// Race tests use it to get real goroutine interleavings on single-core
// hosts; Fixed(1) is Serial. The worker count bounds loop fan-out only —
// Do is exempt (see Do).
func Fixed(workers int) *Runner {
	if workers < 1 {
		workers = 1
	}
	return &Runner{workers: workers}
}

// Sched resolves the schedule-flag pair every protocol Params carries
// (PhaseSerial, PhaseWorkers — core, multival, budgets all expose the same
// knobs; DESIGN.md §9) to an executor: the serial reference schedule when
// serial is set, a fixed-width pool when workers > 0, the GOMAXPROCS
// default otherwise.
func Sched(serial bool, workers int) *Runner {
	if serial {
		return Serial()
	}
	if workers > 0 {
		return Fixed(workers)
	}
	return Parallel()
}

// IsSerial reports whether this runner executes loops on the calling
// goroutine in index order.
func (r *Runner) IsSerial() bool { return r != nil && r.workers == 1 }

// width resolves the worker count for a loop of n iterations.
func (r *Runner) width(n int) int {
	w := 0
	if r != nil {
		w = r.workers
	}
	fixed := w > 1
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n && !fixed {
		w = n
	}
	return w
}

// Workers returns the number of distinct worker ids a ForWorker loop of n
// iterations will use under this runner's policy — the size callers give
// their scratch-arena slices. It always returns at least 1.
func (r *Runner) Workers(n int) int {
	if n <= 0 {
		return 1
	}
	w := r.width(n)
	if w < 1 {
		w = 1
	}
	return w
}

// For runs fn(i) for every i in [0,n) under this runner's policy. It
// returns after all iterations finish. fn must be safe to call concurrently
// for distinct i unless the runner is serial.
func (r *Runner) For(n int, fn func(i int)) { r.ForWorker(n, func(_, i int) { fn(i) }) }

// ForWorker runs fn(worker, i) for every i in [0,n), where worker is the
// stable id in [0, Workers(n)) of the goroutine executing iteration i. The
// id lets allocation-free loop bodies index per-worker scratch arenas
// (buffers reused across the iterations one worker executes); the caller
// owns the arenas, sized by Workers(n), and the loop body must leave its
// arena reset before returning from each iteration, because which worker
// runs which iteration is schedule-dependent. Results must therefore never
// depend on the worker id — only scratch storage may.
//
// Each worker repeatedly claims the next contiguous chunk of
// max(1, n/(4·workers)) indices, so every worker gets several chunks for
// load balancing.
func (r *Runner) ForWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers := r.width(n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	chunk := max(1, n/(workers*4))
	var next int
	var mu sync.Mutex
	take := func() (lo, hi int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0, false
		}
		lo = next
		hi = lo + chunk
		if hi > n {
			hi = n
		}
		next = hi
		return lo, hi, true
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				lo, hi, ok := take()
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					fn(worker, i)
				}
			}
		}(w)
	}
	wg.Wait()
}

// Do runs the given thunks and waits for all of them: in order on a
// serial runner, otherwise one goroutine per thunk. Do does not apply the
// runner's worker count — thunks may block on each other (unlike loop
// iterations), so capping them could deadlock; callers that need bounded
// fan-out use For over an index range instead.
func (r *Runner) Do(fns ...func()) {
	if r.IsSerial() || len(fns) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}

// MapOn applies fn to every index in [0,n) under the given runner and
// collects the results in index order. (A generic method is not legal Go,
// hence the free function.)
func MapOn[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	r.For(n, func(i int) { out[i] = fn(i) })
	return out
}

// For runs fn(i) for every i in [0,n) on the default parallel runner,
// distributing work across up to runtime.GOMAXPROCS(0) goroutines. It
// returns after all iterations finish. fn must be safe to call concurrently
// for distinct i.
func For(n int, fn func(i int)) { Parallel().For(n, fn) }
