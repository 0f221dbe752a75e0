package world

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
)

func twoByThree() *World {
	// 2 players, 3 objects
	return New([]bitvec.Vector{
		bitvec.FromBits([]int{1, 0, 1}),
		bitvec.FromBits([]int{0, 1, 1}),
	})
}

func TestProbeReturnsTruth(t *testing.T) {
	w := twoByThree()
	if !w.Probe(0, 0) || w.Probe(0, 1) || !w.Probe(0, 2) {
		t.Fatal("probe returned wrong truth for player 0")
	}
	if w.Probe(1, 0) || !w.Probe(1, 1) || !w.Probe(1, 2) {
		t.Fatal("probe returned wrong truth for player 1")
	}
}

func TestProbeAccountingDistinctObjects(t *testing.T) {
	w := twoByThree()
	w.Probe(0, 0)
	w.Probe(0, 0)
	w.Probe(0, 0)
	if w.Probes(0) != 1 {
		t.Fatalf("re-probing the same object charged %d probes, want 1", w.Probes(0))
	}
	w.Probe(0, 1)
	if w.Probes(0) != 2 {
		t.Fatalf("Probes = %d, want 2", w.Probes(0))
	}
	if w.Probes(1) != 0 {
		t.Fatal("probes leaked across players")
	}
}

func TestPeekTruthDoesNotCharge(t *testing.T) {
	w := twoByThree()
	w.PeekTruth(0, 0)
	w.PeekTruth(0, 1)
	if w.Probes(0) != 0 {
		t.Fatal("PeekTruth charged probes")
	}
}

func TestResetProbes(t *testing.T) {
	w := twoByThree()
	w.Probe(0, 0)
	w.ResetProbes()
	if w.Probes(0) != 0 {
		t.Fatal("ResetProbes did not zero counters")
	}
	w.Probe(0, 0)
	if w.Probes(0) != 1 {
		t.Fatal("probe memo not cleared by ResetProbes")
	}
}

func TestHonestByDefault(t *testing.T) {
	w := twoByThree()
	if !w.IsHonest(0) || !w.IsHonest(1) {
		t.Fatal("players not honest by default")
	}
	if len(w.DishonestPlayers()) != 0 {
		t.Fatal("fresh world has dishonest players")
	}
	if got := w.HonestPlayers(); len(got) != 2 {
		t.Fatalf("HonestPlayers = %v", got)
	}
}

type liar struct{}

func (liar) Report(rc *Run, p, o int) bool { return !rc.PeekTruth(p, o) }

func TestSetBehaviorMarksDishonest(t *testing.T) {
	w := twoByThree()
	w.SetBehavior(1, liar{})
	if w.IsHonest(1) {
		t.Fatal("SetBehavior(liar) left player honest")
	}
	if got := w.DishonestPlayers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DishonestPlayers = %v", got)
	}
	// Re-installing Honest restores honesty.
	w.SetBehavior(1, Honest{})
	if !w.IsHonest(1) {
		t.Fatal("SetBehavior(Honest) did not restore honesty")
	}
}

func TestReportHonestProbes(t *testing.T) {
	w := twoByThree()
	v := NewRun(w).Report(0, 0)
	if !v {
		t.Fatal("honest report returned wrong value")
	}
	if w.Probes(0) != 1 {
		t.Fatal("honest report did not charge a probe")
	}
}

func TestReportDishonestLies(t *testing.T) {
	w := twoByThree()
	w.SetBehavior(0, liar{})
	if NewRun(w).Report(0, 0) {
		t.Fatal("liar told the truth")
	}
	if w.Probes(0) != 0 {
		t.Fatal("liar charged a probe")
	}
}

func TestReportVector(t *testing.T) {
	w := twoByThree()
	v := NewRun(w).ReportVector(0, bitvec.CompileExtraction([]int{2, 0}, w.M()))
	// objs[0]=2 → truth 1; objs[1]=0 → truth 1
	if !v.Get(0) || !v.Get(1) || v.Len() != 2 {
		t.Fatalf("ReportVector = %v", v)
	}
	if w.Probes(0) != 2 {
		t.Fatalf("ReportVector charged %d probes, want 2", w.Probes(0))
	}
}

// TestReportVectorDishonest: a dishonest player's vector is its behavior's
// per-object reports, indexed like objs, and charges no probes.
func TestReportVectorDishonest(t *testing.T) {
	w := twoByThree()
	w.SetBehavior(1, liar{})
	v := NewRun(w).ReportVector(1, bitvec.CompileExtraction([]int{2, 0, 1}, w.M()))
	// truth of player 1 on objects 2, 0, 1 is 1, 0, 1; the liar flips it.
	if v.Len() != 3 || v.Get(0) || !v.Get(1) || v.Get(2) {
		t.Fatalf("dishonest ReportVector = %v", v)
	}
	if w.Probes(1) != 0 {
		t.Fatalf("dishonest ReportVector charged %d probes", w.Probes(1))
	}
}

// TestMeanHonestProbes averages probe counts over honest players only, and
// is 0 when nobody is honest.
func TestMeanHonestProbes(t *testing.T) {
	w := New(randTruth(3, 10, 1))
	w.Probe(0, 1)
	w.Probe(0, 2)
	w.Probe(2, 3)
	w.SetBehavior(1, liar{})
	if got := w.MeanHonestProbes(); got != 1.5 {
		t.Fatalf("MeanHonestProbes = %v, want 1.5", got)
	}
	w.SetBehavior(0, liar{})
	w.SetBehavior(2, liar{})
	if got := w.MeanHonestProbes(); got != 0 {
		t.Fatalf("MeanHonestProbes with no honest player = %v, want 0", got)
	}
}

func TestHonestError(t *testing.T) {
	w := twoByThree()
	out := bitvec.FromBits([]int{1, 1, 1}) // truth for p0 is 101
	if e := w.HonestError(0, out); e != 1 {
		t.Fatalf("HonestError = %d, want 1", e)
	}
}

func TestMaxHonestProbesIgnoresDishonest(t *testing.T) {
	w := twoByThree()
	w.SetBehavior(1, liar{})
	w.Probe(1, 0)
	w.Probe(1, 1)
	w.Probe(0, 0)
	if got := w.MaxHonestProbes(); got != 1 {
		t.Fatalf("MaxHonestProbes = %d, want 1", got)
	}
	if w.TotalProbes() != 3 {
		t.Fatalf("TotalProbes = %d, want 3", w.TotalProbes())
	}
}

func TestConcurrentProbes(t *testing.T) {
	n, m := 4, 512
	truth := make([]bitvec.Vector, n)
	for p := range truth {
		truth[p] = bitvec.New(m)
	}
	w := New(truth)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := 0; p < n; p++ {
				for o := 0; o < m; o++ {
					w.Probe(p, o)
				}
			}
		}()
	}
	wg.Wait()
	for p := 0; p < n; p++ {
		if w.Probes(p) != int64(m) {
			t.Fatalf("player %d charged %d probes, want %d", p, w.Probes(p), m)
		}
	}
}

func TestRunExec(t *testing.T) {
	w := twoByThree()
	if NewRun(w).Exec() == nil || NewRun(w).Exec().IsSerial() {
		t.Fatal("default run executor must be non-nil and parallel")
	}
	if !NewRunOn(w, par.Serial()).Exec().IsSerial() {
		t.Fatal("NewRunOn(Serial) executor not serial")
	}
	if NewRunOn(w, nil).Exec() == nil {
		t.Fatal("NewRunOn(nil) must fall back to the parallel executor")
	}
}

// TestProbeChargesOnceUnderContention hammers the same few (player, object)
// cells from fixed-width workers: the CAS memo must charge each distinct
// cell exactly once regardless of interleaving (run under -race).
func TestProbeChargesOnceUnderContention(t *testing.T) {
	const n, m, distinct = 2, 256, 64
	truth := make([]bitvec.Vector, n)
	for p := range truth {
		truth[p] = bitvec.New(m)
	}
	w := New(truth)
	par.Fixed(8).For(8*n*distinct, func(i int) {
		j := i % (n * distinct)
		w.Probe(j/distinct, (j%distinct)*3)
	})
	for p := 0; p < n; p++ {
		if w.Probes(p) != distinct {
			t.Fatalf("player %d charged %d probes, want %d", p, w.Probes(p), distinct)
		}
	}
}

func TestPublicSample(t *testing.T) {
	rc := NewRun(twoByThree())
	if rc.Pub.HasSample() {
		t.Fatal("fresh run has a sample")
	}
	rc.Pub.SetSample([]int{0, 2})
	if !rc.Pub.HasSample() || !rc.Pub.InSample(0) || rc.Pub.InSample(1) || !rc.Pub.InSample(2) {
		t.Fatal("sample membership wrong")
	}
	rc.Pub.SetSample(nil)
	if rc.Pub.HasSample() || rc.Pub.InSample(0) {
		t.Fatal("clearing sample failed")
	}
}

func TestRunsAreIndependent(t *testing.T) {
	w := twoByThree()
	a, b := NewRun(w), NewRun(w)
	a.Pub.SetSample([]int{1})
	a.Pub.Phase = "workshare"
	if b.Pub.HasSample() || b.Pub.Phase != "" {
		t.Fatal("published state leaked between runs over one world")
	}
	if a.N() != w.N() || a.M() != w.M() {
		t.Fatal("run does not expose the embedded world")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged truth")
		}
	}()
	New([]bitvec.Vector{bitvec.New(3), bitvec.New(4)})
}

func TestTruthVectorIsCopy(t *testing.T) {
	w := twoByThree()
	v := w.TruthVector(0)
	v.Flip(0)
	if !w.PeekTruth(0, 0) {
		t.Fatal("TruthVector shares storage with world truth")
	}
}

// randTruth builds an n×m truth matrix from a cheap deterministic hash.
func randTruth(n, m int, seed uint64) []bitvec.Vector {
	truth := make([]bitvec.Vector, n)
	s := seed
	for p := range truth {
		v := bitvec.New(m)
		for o := 0; o < m; o++ {
			s = s*6364136223846793005 + 1442695040888963407
			if s>>60&1 == 1 {
				v.Set(o, true)
			}
		}
		truth[p] = v
	}
	return truth
}

// TestProbeWordMatchesProbe: the word-level probe must return the same
// truth bits and charge the same per-player totals as bit-at-a-time Probe,
// including across overlapping masks and the word-boundary tail.
func TestProbeWordMatchesProbe(t *testing.T) {
	const n, m = 4, 130
	wordW := New(randTruth(n, m, 7))
	bitW := New(randTruth(n, m, 7))
	masks := []struct {
		wi   int
		mask uint64
	}{
		{0, 0xF0F0F0F0F0F0F0F0},
		{0, 0x00000000FFFFFFFF}, // overlaps the first mask
		{1, ^uint64(0)},
		{2, ^uint64(0)}, // tail word: only 2 bits are valid
		{2, 0b01},       // already-known tail bit: charges nothing
	}
	for p := 0; p < n; p++ {
		for _, mk := range masks {
			got := wordW.ProbeWord(p, mk.wi, mk.mask)
			var want uint64
			base := mk.wi * 64
			for b := 0; b < 64; b++ {
				o := base + b
				if mk.mask&(1<<uint(b)) == 0 || o >= m {
					continue
				}
				if bitW.Probe(p, o) {
					want |= 1 << uint(b)
				}
			}
			if got != want {
				t.Fatalf("p=%d word %d mask %#x: ProbeWord = %#x, want %#x", p, mk.wi, mk.mask, got, want)
			}
			if wordW.Probes(p) != bitW.Probes(p) {
				t.Fatalf("p=%d after word %d: charges %d (word) vs %d (bit)", p, mk.wi, wordW.Probes(p), bitW.Probes(p))
			}
		}
	}
}

// TestProbeWordConcurrentCharging: under real goroutine interleavings with
// overlapping word masks, every (player, object) pair must be charged
// exactly once — the schedule-independence half of the bulk-probe contract.
func TestProbeWordConcurrentCharging(t *testing.T) {
	const n, m = 2, 1024
	w := New(randTruth(n, m, 13))
	// 8 workers repeatedly probe overlapping words bit-wise and word-wise.
	par.Fixed(8).For(8*w.ProbeWords(), func(i int) {
		wi := i % w.ProbeWords()
		switch i % 3 {
		case 0:
			w.ProbeWord(0, wi, ^uint64(0))
		case 1:
			w.ProbeWord(0, wi, 0xAAAAAAAAAAAAAAAA)
		default:
			for b := 0; b < 64 && wi*64+b < m; b += 7 {
				w.Probe(0, wi*64+b)
			}
		}
	})
	if got := w.Probes(0); got != m {
		t.Fatalf("player 0 charged %d probes, want exactly %d", got, m)
	}
	if got := w.Probes(1); got != 0 {
		t.Fatalf("player 1 charged %d probes, want 0", got)
	}
}

// TestProberMatchesProbeWord: a player's probe handle returns the same
// bits and charges the same totals as World.ProbeWord, on dense and lazy
// worlds, across overlapping and repeated masks, the tail word, and a mix
// of handle and direct probes; it panics on an out-of-range word like
// ProbeWord, installs no memo before its first probe, and two handles on
// one player racing over the same words charge each object once.
func TestProberMatchesProbeWord(t *testing.T) {
	const n, m = 3, 300
	dh, lh := lazyDensePair(31, n, m, 3, 12)
	dw, lw := lazyDensePair(31, n, m, 3, 12)
	masks := []struct {
		wi   int
		mask uint64
	}{
		{0, 0xF0F0F0F0F0F0F0F0},
		{0, 0x00000000FFFFFFFF}, // overlaps the first mask
		{0, 0x00000000FFFFFFFF}, // repeated: charges nothing
		{3, 0x8000000000000001},
		{4, ^uint64(0)}, // tail word: only 44 bits are valid
		{4, 1 << 50},    // past the last object: ignored
		{2, 0},
		{1, ^uint64(0)},
	}
	for _, pair := range []struct {
		name         string
		handle, word *World
	}{{"dense", dh, dw}, {"lazy", lh, lw}} {
		for p := 0; p < n; p++ {
			pr := pair.handle.Prober(p)
			if pair.handle.known[p].Load() != nil {
				t.Fatalf("%s p=%d: memo installed before the first probe", pair.name, p)
			}
			for i, mk := range masks {
				var got uint64
				if p == 1 && i%2 == 1 {
					// Direct probes interleaved with the handle's share the
					// player's one memo.
					got = pair.handle.ProbeWord(p, mk.wi, mk.mask)
				} else {
					got = pr.ProbeWord(mk.wi, mk.mask)
				}
				if want := pair.word.ProbeWord(p, mk.wi, mk.mask); got != want {
					t.Fatalf("%s p=%d word %d mask %#x: handle %#x, ProbeWord %#x", pair.name, p, mk.wi, mk.mask, got, want)
				}
				if a, b := pair.handle.Probes(p), pair.word.Probes(p); a != b {
					t.Fatalf("%s p=%d after word %d: charged %d (handle) vs %d (ProbeWord)", pair.name, p, mk.wi, a, b)
				}
			}
			for _, wi := range []int{-1, pair.handle.ProbeWords()} {
				func() {
					defer func() {
						want := fmt.Sprintf("bitvec: word %d out of range [0,%d)", wi, pair.handle.ProbeWords())
						if msg, _ := recover().(string); msg != want {
							t.Fatalf("%s: handle panic %q, want %q", pair.name, msg, want)
						}
					}()
					pr.ProbeWord(wi, 1)
				}()
			}
		}
	}

	// Two handles on one player, probing overlapping words from separate
	// goroutines, charge every object exactly once.
	w := New(randTruth(2, 1024, 17))
	par.Fixed(2).For(2, func(g int) {
		pr := w.Prober(0)
		for _, mask := range []uint64{0xAAAAAAAAAAAAAAAA, 0x0F0F0F0F0F0F0F0F, 0xFFFF0000FFFF0000, ^uint64(0)} {
			for wi := 0; wi < w.ProbeWords(); wi++ {
				pr.ProbeWord(wi, bits.RotateLeft64(mask, g))
			}
		}
	})
	if got := w.Probes(0); got != int64(w.M()) {
		t.Fatalf("two concurrent handles charged player 0 %d probes, want exactly %d", got, w.M())
	}
	if got := w.Probes(1); got != 0 {
		t.Fatalf("player 1 charged %d probes, want 0", got)
	}
}

// ProbeVector probes, as player p, every object in objs and returns the
// true preferences as a vector indexed like objs (bit j is the truth for
// objs[j]). It is the uncompiled oracle of an honest ReportVector. Runs of objects sharing a 64-bit word — the common case, since
// protocol object lists are sorted — collapse into single ProbeWord calls
// whose returned truth bits fill the run's outputs, so truth is read once
// per run and the only allocation is the returned vector. One pass over
// objs range-checks each object once and probes a run when the next word
// starts. Probe charging is identical to calling Probe per object.
func (w *World) ProbeVector(p int, objs []int) bitvec.Vector {
	out := bitvec.New(len(objs))
	start, wi, mask := 0, -1, uint64(0)
	for j, o := range objs {
		if ow := w.objectWord(o); ow != wi {
			w.probeRun(p, wi, mask, objs[start:j], out, start)
			start, wi, mask = j, ow, 0
		}
		mask |= 1 << (uint(o) % 64)
	}
	w.probeRun(p, wi, mask, objs[start:], out, start)
	return out
}

// probeRun probes one of ProbeVector's runs — the objects run, all in
// object word wi, whose bits make up mask — and sets their truth bits in
// out from position at on. An empty run (mask 0) probes nothing.
func (w *World) probeRun(p, wi int, mask uint64, run []int, out bitvec.Vector, at int) {
	if mask == 0 {
		return
	}
	truth := w.ProbeWord(p, wi, mask)
	for k, o := range run {
		if truth>>(uint(o)%64)&1 == 1 {
			out.Set(at+k, true)
		}
	}
}

// objectWord returns the object word holding o, panicking on an
// out-of-range object.
func (w *World) objectWord(o int) int {
	if o < 0 || o >= w.m {
		panic(fmt.Sprintf("world: object %d out of range [0,%d)", o, w.m))
	}
	return o / 64
}

// TestProbeVectorMatchesReportVector: the bulk vector probe must agree
// with per-object probing on scattered, unsorted object lists, and charge
// identically.
func TestProbeVectorMatchesReportVector(t *testing.T) {
	const n, m = 3, 300
	bulkW := New(randTruth(n, m, 21))
	bitW := New(randTruth(n, m, 21))
	objs := []int{5, 6, 7, 64, 65, 130, 2, 299, 131, 64} // repeats and jumps
	for p := 0; p < n; p++ {
		got := bulkW.ProbeVector(p, objs)
		want := bitvec.New(len(objs))
		for j, o := range objs {
			if bitW.Probe(p, o) {
				want.Set(j, true)
			}
		}
		if !got.Equal(want) {
			t.Fatalf("p=%d: ProbeVector = %v, want %v", p, got, want)
		}
		if bulkW.Probes(p) != bitW.Probes(p) {
			t.Fatalf("p=%d: charges %d (bulk) vs %d (bit)", p, bulkW.Probes(p), bitW.Probes(p))
		}
	}
}

// TestReportVectorOutOfRange: an out-of-range object panics while its
// list is compiled, with a message naming it, before any probe is charged
// (the uncompiled ProbeVector charged the runs before it).
func TestReportVectorOutOfRange(t *testing.T) {
	const m = 300
	w := New(randTruth(1, m, 22))
	defer func() {
		want := fmt.Sprintf("bitvec: position %d out of range [0,%d)", m+2, m)
		if r := recover(); r != want {
			t.Fatalf("panic %v, want %q", r, want)
		}
		if got := w.Probes(0); got != 0 {
			t.Fatalf("charged %d probes before the panic, want 0", got)
		}
	}()
	NewRun(w).ReportVector(0, bitvec.CompileExtraction([]int{3, 5, 70, m + 2}, m))
}

// TestReportVectorRefusesForeignList: a list compiled for another object
// count panics before any probe is charged.
func TestReportVectorRefusesForeignList(t *testing.T) {
	w := New(randTruth(1, 300, 23))
	defer func() {
		if recover() == nil || w.Probes(0) != 0 {
			t.Fatalf("no panic, or %d probes charged", w.Probes(0))
		}
	}()
	NewRun(w).ReportVector(0, bitvec.CompileExtraction([]int{3}, 200))
}

// TestProbeWordAllocFree: the bulk-probe hot path must not allocate
// (satellite regression guard).
func TestProbeWordAllocFree(t *testing.T) {
	w := New(randTruth(2, 4096, 3))
	var sink uint64
	wi := 0
	if n := testing.AllocsPerRun(200, func() {
		sink += w.ProbeWord(0, wi%w.ProbeWords(), ^uint64(0))
		wi++
	}); n != 0 {
		t.Fatalf("ProbeWord allocates %v times per run", n)
	}
	_ = sink
}

// TestReportWordHonestAndDishonest: honest players ride the bulk path;
// dishonest reports still flow through their behavior per object.
func TestReportWordHonestAndDishonest(t *testing.T) {
	truth := randTruth(2, 100, 5)
	w := New(truth)
	w.SetBehavior(1, flipBehavior{})
	rc := NewRun(w)
	gotHonest := rc.ReportWord(0, 0, ^uint64(0))
	if want := truth[0].Word(0); gotHonest != want {
		t.Fatalf("honest ReportWord = %#x, want truth %#x", gotHonest, want)
	}
	gotLiar := rc.ReportWord(1, 0, ^uint64(0))
	if want := ^truth[1].Word(0) & truth[1].WordMask(0); gotLiar != want {
		t.Fatalf("dishonest ReportWord = %#x, want flipped %#x", gotLiar, want)
	}
	if w.Probes(1) != 0 {
		t.Fatalf("liar charged %d probes", w.Probes(1))
	}
}

// flipBehavior reports the opposite of the truth without probing.
type flipBehavior struct{}

func (flipBehavior) Report(rc *Run, p, o int) bool { return !rc.PeekTruth(p, o) }
