package adversary

import (
	"testing"

	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

func testWorld(seed uint64, n, m int) *world.Run {
	in := prefgen.Uniform(xrand.New(seed), n, m)
	return world.NewRun(world.New(in.Truth))
}

func TestRandomLiarConsistency(t *testing.T) {
	w := testWorld(1, 4, 64)
	r := RandomLiar{Seed: 5}
	for p := 0; p < 4; p++ {
		for o := 0; o < 64; o++ {
			a := r.Report(w, p, o)
			b := r.Report(w, p, o)
			if a != b {
				t.Fatal("RandomLiar flip-flopped")
			}
		}
	}
}

func TestRandomLiarRoughlyBalanced(t *testing.T) {
	w := testWorld(2, 1, 4096)
	r := RandomLiar{Seed: 9}
	ones := 0
	for o := 0; o < 4096; o++ {
		if r.Report(w, 0, o) {
			ones++
		}
	}
	if ones < 1700 || ones > 2400 {
		t.Fatalf("RandomLiar ones = %d/4096, badly skewed", ones)
	}
}

func TestRandomLiarNoProbes(t *testing.T) {
	w := testWorld(3, 2, 32)
	r := RandomLiar{Seed: 1}
	for o := 0; o < 32; o++ {
		r.Report(w, 0, o)
	}
	if w.Probes(0) != 0 {
		t.Fatal("RandomLiar charged probes")
	}
}

func TestFlipAllAlwaysWrong(t *testing.T) {
	w := testWorld(4, 3, 64)
	f := FlipAll{}
	for p := 0; p < 3; p++ {
		for o := 0; o < 64; o++ {
			if f.Report(w, p, o) == w.PeekTruth(p, o) {
				t.Fatal("FlipAll told the truth")
			}
		}
	}
	if w.Probes(0) != 0 {
		t.Fatal("FlipAll charged probes")
	}
}

func TestZeroSpam(t *testing.T) {
	w := testWorld(5, 2, 16)
	z := ZeroSpam{}
	for o := 0; o < 16; o++ {
		if z.Report(w, 0, o) {
			t.Fatal("ZeroSpam reported 1")
		}
	}
}

func TestColludersShareTarget(t *testing.T) {
	w := testWorld(6, 4, 128)
	c := NewColluder(42, 128)
	for o := 0; o < 128; o++ {
		a := c.Report(w, 0, o)
		b := c.Report(w, 1, o)
		if a != b {
			t.Fatal("colluders disagreed")
		}
		if a != c.Target.Get(o) {
			t.Fatal("colluder deviated from target")
		}
	}
}

func TestClusterHijackerMimicsOnSample(t *testing.T) {
	w := testWorld(7, 4, 64)
	h := ClusterHijacker{Victim: 2}
	// No sample published yet: mimics the victim everywhere.
	for o := 0; o < 64; o++ {
		if h.Report(w, 0, o) != w.PeekTruth(2, o) {
			t.Fatal("hijacker failed to mimic before sampling")
		}
	}
	// Publish a sample; mimic inside, anti-mimic outside.
	w.Pub.SetSample([]int{1, 5, 9})
	for o := 0; o < 64; o++ {
		got := h.Report(w, 0, o)
		want := w.PeekTruth(2, o)
		if w.Pub.InSample(o) {
			if got != want {
				t.Fatalf("hijacker lied on sample object %d", o)
			}
		} else if got == want {
			t.Fatalf("hijacker mimicked off-sample object %d", o)
		}
	}
}

func TestStrangeObjectAttackerSidesWithMinority(t *testing.T) {
	// 5 honest players: 3 like object 0, 2 dislike it. The attacker (in the
	// same cluster) must vote with the minority (dislike).
	in := prefgen.Uniform(xrand.New(8), 6, 4)
	// Overwrite object 0 prefs: players 0,1,2 like; 3,4 dislike.
	for p := 0; p < 5; p++ {
		in.Truth[p].Set(0, p < 3)
	}
	w := world.NewRun(world.New(in.Truth))
	att := StrangeObjectAttacker{Seed: 3}
	w.SetBehavior(5, att)
	w.Pub.Clusters = [][]int{{0, 1, 2, 3, 4, 5}}
	if att.Report(w, 5, 0) {
		t.Fatal("attacker voted with the majority")
	}
	// Without cluster info it falls back to a consistent pseudo-random lie.
	w.Pub.Clusters = nil
	a := att.Report(w, 5, 1)
	b := att.Report(w, 5, 1)
	if a != b {
		t.Fatal("fallback not consistent")
	}
}

func TestMimicThenFlip(t *testing.T) {
	w := testWorld(9, 2, 32)
	mtf := MimicThenFlip{}
	w.Pub.Phase = "smallradius"
	if mtf.Report(w, 0, 3) != w.PeekTruth(0, 3) {
		t.Fatal("MimicThenFlip lied during sampling")
	}
	w.Pub.Phase = "workshare"
	if mtf.Report(w, 0, 3) == w.PeekTruth(0, 3) {
		t.Fatal("MimicThenFlip told the truth during workshare")
	}
}

func TestFlipflopperAlternates(t *testing.T) {
	w := testWorld(13, 2, 8)
	f := NewFlipflopper()
	a := f.Report(w, 0, 3)
	b := f.Report(w, 0, 3)
	c := f.Report(w, 0, 3)
	if a == b || a != c {
		t.Fatalf("flipflopper pattern wrong: %v %v %v", a, b, c)
	}
	// Distinct cells alternate independently.
	if !f.Report(w, 0, 4) {
		t.Fatal("fresh cell should start with true")
	}
}

func TestCombinedDispatchesOnPhase(t *testing.T) {
	w := testWorld(14, 4, 16)
	c := Combined{Victim: 2, Seed: 9}
	// Sampling phase: behaves like the hijacker (mimics victim with no
	// sample published).
	w.Pub.Phase = "smallradius"
	for o := 0; o < 16; o++ {
		if c.Report(w, 0, o) != w.PeekTruth(2, o) {
			t.Fatal("Combined did not hijack during sampling")
		}
	}
	// Workshare phase: behaves like the strange-object attacker (falls
	// back to consistent random lies without cluster info).
	w.Pub.Phase = "workshare"
	x := c.Report(w, 0, 1)
	y := c.Report(w, 0, 1)
	if x != y {
		t.Fatal("Combined inconsistent during workshare")
	}
}

func TestCorrupt(t *testing.T) {
	w := testWorld(10, 10, 16)
	ids := Corrupt(w.World, 3, nil, func(p int) world.Behavior { return FlipAll{} })
	if len(ids) != 3 {
		t.Fatalf("corrupted %d, want 3", len(ids))
	}
	if got := w.DishonestPlayers(); len(got) != 3 {
		t.Fatalf("DishonestPlayers = %v, want 3 players", got)
	}
	for _, p := range ids {
		if w.IsHonest(p) {
			t.Fatalf("player %d still honest", p)
		}
	}
	// With a permutation.
	w2 := testWorld(11, 10, 16)
	perm := []int{9, 7, 5, 3, 1, 0, 2, 4, 6, 8}
	ids2 := Corrupt(w2.World, 2, perm, func(p int) world.Behavior { return FlipAll{} })
	if ids2[0] != 9 || ids2[1] != 7 {
		t.Fatalf("Corrupt ignored permutation: %v", ids2)
	}
	// Clamp at n.
	w3 := testWorld(12, 4, 8)
	if got := Corrupt(w3.World, 100, nil, func(p int) world.Behavior { return FlipAll{} }); len(got) != 4 {
		t.Fatalf("Corrupt over-corrupted: %d", len(got))
	}
}
