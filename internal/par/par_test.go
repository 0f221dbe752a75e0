package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	runners := map[string]*Runner{
		"serial":   Serial(),
		"fixed3":   Fixed(3),
		"parallel": Parallel(),
	}
	for name, r := range runners {
		for _, n := range []int{0, 1, 3, 1000} {
			hits := make([]atomic.Int32, n)
			r.For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("%s n=%d: index %d visited %d times", name, n, i, hits[i].Load())
				}
			}
		}
	}
}

func TestForChunkedCoversAllIndices(t *testing.T) {
	// ForWorker hands out chunks of max(1, n/(4·workers)) indices; these
	// worker counts give chunks that divide n, leave a short last chunk,
	// shrink to one index, and outnumber the indices.
	const n = 1000
	for _, workers := range []int{2, 3, 7, 250, 1001} {
		hits := make([]atomic.Int32, n)
		Fixed(workers).For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	var count atomic.Int32
	Parallel().Do(
		func() { count.Add(1) },
		func() { count.Add(1) },
		func() { count.Add(1) },
	)
	if count.Load() != 3 {
		t.Fatalf("Do ran %d thunks, want 3", count.Load())
	}
	Parallel().Do() // no thunks: must not hang
}

func TestMapOrder(t *testing.T) {
	out := MapOn(nil, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("MapOn[%d] = %d, want %d", i, v, i*i)
		}
	}
	if len(MapOn(nil, 0, func(i int) int { return i })) != 0 {
		t.Fatal("MapOn(nil, 0) should be empty")
	}
}

func TestSerialRunnerOrder(t *testing.T) {
	var order []int
	Serial().For(100, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial For visited %d at position %d", v, i)
		}
	}
	if len(order) != 100 {
		t.Fatalf("serial For ran %d iterations, want 100", len(order))
	}
	order = order[:0]
	Serial().Do(
		func() { order = append(order, 0) },
		func() { order = append(order, 1) },
		func() { order = append(order, 2) },
	)
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Do ran thunk %d at position %d", v, i)
		}
	}
	if !Serial().IsSerial() || !Fixed(1).IsSerial() {
		t.Fatal("Serial/Fixed(1) not reported serial")
	}
	if Parallel().IsSerial() || (*Runner)(nil).IsSerial() {
		t.Fatal("parallel runner reported serial")
	}
}

func TestFixedRunnerSpawnsWorkers(t *testing.T) {
	// Fixed(k) must use k goroutines even when k exceeds GOMAXPROCS and the
	// iteration count: distinct goroutines are observable because a single
	// goroutine running all iterations would deadlock on the barrier below.
	const workers = 4
	var started atomic.Int32
	release := make(chan struct{})
	Fixed(workers).For(workers, func(i int) {
		if started.Add(1) == workers {
			close(release)
		}
		<-release
	})
}

func TestNilRunnerBehavesParallel(t *testing.T) {
	var r *Runner
	hits := make([]atomic.Int32, 500)
	r.For(500, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("nil runner: index %d visited %d times", i, hits[i].Load())
		}
	}
	out := MapOn(r, 10, func(i int) int { return i + 1 })
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("MapOn[%d] = %d", i, v)
		}
	}
}

func TestMapOnSchedulesAgree(t *testing.T) {
	fn := func(i int) int { return i*i - 3*i }
	serial := MapOn(Serial(), 1000, fn)
	parallel := MapOn(Parallel(), 1000, fn)
	fixed := MapOn(Fixed(7), 1000, fn)
	for i := range serial {
		if serial[i] != parallel[i] || serial[i] != fixed[i] {
			t.Fatalf("schedules disagree at %d: %d/%d/%d", i, serial[i], parallel[i], fixed[i])
		}
	}
}

func TestNestedParallelism(t *testing.T) {
	var total atomic.Int64
	For(10, func(i int) {
		For(10, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 100 {
		t.Fatalf("nested For ran %d iterations, want 100", total.Load())
	}
}

// TestForWorkerCoversAllIndices: every index runs exactly once and every
// reported worker id is within [0, Workers(n)), for parallel, serial and
// fixed runners.
func TestForWorkerCoversAllIndices(t *testing.T) {
	runners := map[string]*Runner{
		"parallel": Parallel(),
		"serial":   Serial(),
		"fixed4":   Fixed(4),
	}
	for name, r := range runners {
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]atomic.Int32, n)
			bound := r.Workers(n)
			var badWorker atomic.Int32
			badWorker.Store(-1)
			r.ForWorker(n, func(w, i int) {
				if w < 0 || w >= bound {
					badWorker.Store(int32(w))
				}
				hits[i].Add(1)
			})
			if w := badWorker.Load(); w != -1 {
				t.Fatalf("%s n=%d: worker id %d outside [0,%d)", name, n, w, bound)
			}
			for i := range hits {
				if hits[i].Load() != 1 {
					t.Fatalf("%s n=%d: index %d visited %d times", name, n, i, hits[i].Load())
				}
			}
		}
	}
}

// TestForWorkerScratchArenas exercises the scratch-arena pattern ForWorker
// exists for: per-worker accumulators sized by Workers(n) must absorb all
// iterations without racing (run under -race).
func TestForWorkerScratchArenas(t *testing.T) {
	const n = 5000
	for _, r := range []*Runner{Parallel(), Serial(), Fixed(8)} {
		sums := make([]int64, r.Workers(n))
		r.ForWorker(n, func(w, i int) { sums[w] += int64(i) })
		var total int64
		for _, s := range sums {
			total += s
		}
		if want := int64(n) * (n - 1) / 2; total != want {
			t.Fatalf("scratch totals sum to %d, want %d", total, want)
		}
	}
}

// TestSerialForWorkerIsOrdered: the serial runner must run iterations in
// index order on worker 0 — the reference schedule contract.
func TestSerialForWorkerIsOrdered(t *testing.T) {
	var seen []int
	Serial().ForWorker(100, func(w, i int) {
		if w != 0 {
			t.Fatalf("serial worker id %d", w)
		}
		seen = append(seen, i)
	})
	for i, v := range seen {
		if v != i {
			t.Fatalf("serial order broken at %d: %d", i, v)
		}
	}
}
