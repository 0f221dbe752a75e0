package world

import (
	"os"
	"runtime"
	"testing"

	"collabscore/internal/par"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// heapAlloc returns the live-heap size after a full collection; differences
// between two calls bound the retained cost of what was built in between.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDelta runs build and returns the retained heap it added.
func heapDelta(build func()) uint64 {
	before := heapAlloc()
	build()
	after := heapAlloc()
	if after < before {
		return 0
	}
	return after - before
}

// TestLazyWorldBoundedMemorySmoke is the short-mode memory pin (it runs in
// the CI race job): even at small n, a lazy world must retain well under a
// quarter of what its dense twin holds, before any probing installs memos.
func TestLazyWorldBoundedMemorySmoke(t *testing.T) {
	const n, m, clusterSize, diameter = 4096, 4096, 64, 8
	var dw, lw *World
	denseDelta := heapDelta(func() {
		dw = New(prefgen.DiameterClusters(xrand.New(5), n, m, clusterSize, diameter).Truth)
	})
	lazyDelta := heapDelta(func() {
		lw = NewFrom(prefgen.LazyDiameterClusters(xrand.New(5), n, m, clusterSize, diameter, 0).Source())
	})
	if lazyDelta*4 > denseDelta {
		t.Fatalf("lazy world retains %d bytes, dense %d — want lazy < dense/4", lazyDelta, denseDelta)
	}
	// Same truth regardless of representation.
	for p := 0; p < n; p += 511 {
		for wi := 0; wi < lw.ProbeWords(); wi += 7 {
			if lw.ProbeWord(p, wi, ^uint64(0)) != dw.ProbeWord(p, wi, ^uint64(0)) {
				t.Fatalf("ProbeWord(%d,%d) diverges from dense", p, wi)
			}
		}
	}
	runtime.KeepAlive(dw)
}

// TestLazyWorldBoundedMemoryLarge is the tentpole acceptance run: an
// n = m = 10⁵ world — a 1.25 GB truth matrix when materialized — built
// lazily under a 96 MB retained-heap ceiling the dense representation
// cannot possibly meet, then probed (serially and in parallel) with every
// word checked against the dense oracle.
func TestLazyWorldBoundedMemoryLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("1.25 GB dense oracle; skipped in -short (smoke test covers the bound)")
	}
	const (
		n, m        = 100_000, 100_000
		clusterSize = 500
		diameter    = 16
		ceiling     = 96 << 20 // bytes of retained heap the lazy world may add
	)
	denseBytes := uint64(n) * uint64(m) / 8
	if ceiling >= denseBytes {
		t.Fatalf("ceiling %d does not exclude a dense world (%d bytes)", uint64(ceiling), denseBytes)
	}

	var lw *World
	lazyDelta := heapDelta(func() {
		lw = NewFrom(prefgen.LazyDiameterClusters(xrand.New(2010), n, m, clusterSize, diameter, 0).Source())
	})
	if lazyDelta > ceiling {
		t.Fatalf("lazy world retains %d bytes, over the %d ceiling", lazyDelta, ceiling)
	}

	// The dense twin: same stream, same truth, three orders of magnitude
	// more memory (the planted generator draws only numClusters·m coins, so
	// building it is cheap in time — the cost is purely the matrix).
	var dw *World
	denseDelta := heapDelta(func() {
		dw = New(prefgen.DiameterClusters(xrand.New(2010), n, m, clusterSize, diameter).Truth)
	})
	if denseDelta <= ceiling {
		t.Fatalf("dense world retained only %d bytes — the %d ceiling no longer separates representations", denseDelta, uint64(ceiling))
	}

	// Probe-path oracle at full scale: scattered players, every word, the
	// lazy world against the dense one.
	for p := 0; p < n; p += 9973 {
		for wi := 0; wi < dw.ProbeWords(); wi += 101 {
			want := dw.ProbeWord(p, wi, ^uint64(0))
			if got := lw.ProbeWord(p, wi, ^uint64(0)); got != want {
				t.Fatalf("lazy ProbeWord(%d,%d) = %#x, want %#x", p, wi, got, want)
			}
		}
	}
	// A parallel pass over one cluster races first-probe memo installs at
	// scale; charging must stay exact.
	lw.ResetProbes()
	words := lw.ProbeWords()
	par.Fixed(8).For(clusterSize*words, func(i int) {
		p, wi := i/words, i%words
		if lw.ProbeWord(p, wi, ^uint64(0)) != dw.ProbeWord(p, wi, ^uint64(0)) {
			t.Errorf("parallel ProbeWord(%d,%d) diverges from dense", p, wi)
		}
	})
	for p := 0; p < clusterSize; p++ {
		if got := lw.Probes(p); got != int64(m) {
			t.Fatalf("player %d charged %d probes, want exactly %d", p, got, m)
		}
	}
	runtime.KeepAlive(dw)
}

// TestLazyWorldMillionPlayers is the skipped-by-default long run: an
// n = m = 10⁶ world — a 125 GB matrix if materialized, beyond this
// machine — built and probed lazily under a 1 GB retained-heap ceiling.
// There is no dense oracle at this scale (that is the point); correctness
// rests on self-consistency plus the bit-identical pins at oracle scales.
// Enable with COLLABSCORE_BIGWORLD=1.
func TestLazyWorldMillionPlayers(t *testing.T) {
	if os.Getenv("COLLABSCORE_BIGWORLD") == "" {
		t.Skip("set COLLABSCORE_BIGWORLD=1 to run the 10⁶-player acceptance test")
	}
	const (
		n, m        = 1_000_000, 1_000_000
		clusterSize = 1000
		diameter    = 16
		ceiling     = 1 << 30
	)
	var lw *World
	var src prefgen.TruthSource
	lazyDelta := heapDelta(func() {
		in := prefgen.LazyDiameterClusters(xrand.New(1_000_003), n, m, clusterSize, diameter, 0)
		src = in.Source()
		lw = NewFrom(src)
	})
	if lazyDelta > ceiling {
		t.Fatalf("lazy world retains %d bytes, over the %d ceiling", lazyDelta, uint64(ceiling))
	}
	// Probe a scattered sample; words must agree with single-bit reads and
	// with a second probe of the same word (memo-stable), and cluster
	// members must differ from their center by at most diameter flips.
	for p := 0; p < n; p += 99_991 {
		for wi := 0; wi < lw.ProbeWords(); wi += 4999 {
			w1 := lw.ProbeWord(p, wi, ^uint64(0))
			if w2 := lw.ProbeWord(p, wi, ^uint64(0)); w2 != w1 {
				t.Fatalf("ProbeWord(%d,%d) unstable across probes", p, wi)
			}
			for b := 0; b < 64 && wi*64+b < m; b += 13 {
				if bit := uint64(1) << uint(b); src.TruthBits(p, wi, bit) != w1&bit {
					t.Fatalf("TruthBits(%d,%d,bit %d) disagrees with its word", p, wi, b)
				}
			}
		}
	}
	if after := heapAlloc(); after > uint64(2)<<30 {
		t.Fatalf("probe phase grew the heap to %d bytes", after)
	}
}
