package selection

import (
	"math/bits"
	"testing"

	"collabscore/internal/bitvec"
	"collabscore/internal/world"
	"collabscore/internal/xrand"
)

// maxPairBudget is the size of the oracle's on-stack rank buffer; budgets
// beyond it spill to a heap buffer and are honored in full.
const maxPairBudget = 128

// duelProbesSerial is the bit-at-a-time reference implementation of the
// duel probes, kept verbatim as the byte-identity oracle for the streaming
// path (TestDuelStreamMatchesSerial). It probes up to budget objects on
// which a and b differ — all of them when there are at most budget,
// otherwise a uniform distinct sample — and returns how many probed
// objects agreed with a, plus the number probed. The differing positions
// stream directly from the XOR of the candidates' words and the sample
// ranks live in a fixed stack buffer (budgets beyond maxPairBudget spill
// to a heap buffer and are honored in full), so a duel normally allocates
// nothing. The rank sample is Floyd's algorithm with the same draws
// xrand.Stream.Sample makes, so the probed set is bit-for-bit the one the
// list-based implementation chose.
func duelProbesSerial(w *world.World, p int, objs []int, a, b bitvec.Vector, rng *xrand.Stream, budget int) (agreeA, total int) {
	d := a.Hamming(b)
	if d == 0 {
		return 0, 0
	}
	nw := a.Words()
	if d <= budget {
		// Probe every differing position.
		for wi := 0; wi < nw; wi++ {
			for x := a.Word(wi) ^ b.Word(wi); x != 0; x &= x - 1 {
				j := wi*64 + bits.TrailingZeros64(x)
				if w.Probe(p, objs[j]) == a.Get(j) {
					agreeA++
				}
			}
		}
		return agreeA, d
	}
	// Floyd's sample of budget distinct ranks in [0,d), identical to
	// xrand.Stream.Sample(d, budget) draw for draw.
	var buf [maxPairBudget]int
	ranks := buf[:]
	if budget > maxPairBudget {
		ranks = make([]int, budget)
	}
	cnt := 0
	for j := d - budget; j < d; j++ {
		t := rng.Intn(j + 1)
		for i := 0; i < cnt; i++ {
			if ranks[i] == t {
				t = j
				break
			}
		}
		ranks[cnt] = t
		cnt++
	}
	// Insertion sort: probe in ascending rank (= ascending position) order,
	// matching the sorted sample of the list-based implementation.
	for i := 1; i < cnt; i++ {
		for k := i; k > 0 && ranks[k] < ranks[k-1]; k-- {
			ranks[k], ranks[k-1] = ranks[k-1], ranks[k]
		}
	}
	// Walk the XOR words once, selecting the positions with the sampled
	// ranks among the set bits.
	ri, seen := 0, 0
	for wi := 0; wi < nw && ri < cnt; wi++ {
		x := a.Word(wi) ^ b.Word(wi)
		c := bits.OnesCount64(x)
		for ri < cnt && ranks[ri]-seen < c {
			y := x
			for k := ranks[ri] - seen; k > 0; k-- {
				y &= y - 1
			}
			j := wi*64 + bits.TrailingZeros64(y)
			if w.Probe(p, objs[j]) == a.Get(j) {
				agreeA++
			}
			ri++
		}
		seen += c
	}
	return agreeA, cnt
}

// stridedObjs returns m positions spread over a larger object space with
// the given stride — the shape of SmallRadius's per-group object lists,
// where consecutive candidate positions map to scattered world words.
func stridedObjs(m, stride int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i * stride
	}
	return out
}

// groupObjs returns a sorted random subset of about m of the first worldM
// objects — SmallRadius's per-group object lists, where 32 objects spread
// over 2048 put about one object in each world word.
func groupObjs(seed uint64, m, worldM int) []int {
	rng := xrand.New(seed)
	var out []int
	for o := 0; o < worldM; o++ {
		if rng.Intn(worldM) < m {
			out = append(out, o)
		}
	}
	return out
}

// repeatedObjs returns an unsorted mapping over the first worldM objects
// in which objects repeat, both adjacently and far apart.
func repeatedObjs(seed uint64, m, worldM int) []int {
	rng := xrand.New(seed)
	out := make([]int, m)
	for i := range out {
		out[i] = rng.Intn(worldM)
	}
	out[1], out[m-1] = out[0], out[m/2]
	return out
}

// TestDuelStreamMatchesSerial: the word-level duel is byte-identical to
// the bit-at-a-time reference — same verdict, same probe charges, and the
// same coins consumed — across object mappings (identity, strided,
// SmallRadius-shaped groups, unsorted with repeats), distances (equal,
// below budget, above budget, past maxRankBitmap onto the heap bitmap),
// and budgets (inside one bitmap word, across the old 24-rank bookkeeping
// switch, and the heap-spill regime past maxPairBudget).
func TestDuelStreamMatchesSerial(t *testing.T) {
	const n = 4
	cases := []struct {
		name   string
		objs   []int
		worldM int
	}{
		{"identity", identityObjs(512), 512},
		{"identity-odd", identityObjs(413), 413},
		{"strided", stridedObjs(96, 7), 96 * 7},
		{"tiny", identityObjs(40), 40},
		{"group32of2048", groupObjs(5, 32, 2048), 2048},
		{"group100of2048", groupObjs(6, 100, 2048), 2048},
		{"repeated", repeatedObjs(7, 90, 200), 200},
		{"wide", identityObjs(9000), 9000},
	}
	for _, tc := range cases {
		mc := len(tc.objs)
		base := buildWorld(21, n, tc.worldM)
		truth := base.TruthVector(0).Gather(tc.objs)
		pairs := []struct {
			name  string
			flips int
		}{
			{"equal", 0},
			{"near", 5},
			{"mid", mc / 8},
			{"far", mc / 2},
		}
		for _, budget := range []int{4, 9, 12, 13, 24, 200} {
			// One tournament per budget: fresh, identical worlds and coin
			// streams per path, then every pair dueled in turn on one
			// duelCtx, so probe counters, memo state and the reused rank
			// bitmap carry from duel to duel as they do in Select.
			ws := buildWorld(21, n, tc.worldM)
			wb := buildWorld(21, n, tc.worldM)
			rs := xrand.New(77)
			rb := xrand.New(77)
			ctxB := newDuelCtx(wb, 0, tc.objs)
			for _, pb := range pairs {
				a := truth.Clone()
				b := flipped(truth, xrand.New(uint64(pb.flips)*3+1), pb.flips)
				agreeS, totalS := duelProbesSerial(ws, 0, tc.objs, a, b, rs, budget)
				agreeB, totalB := duelProbesStream(&ctxB, a, b, rb, budget)
				if agreeS != agreeB || totalS != totalB {
					t.Fatalf("%s/%s budget=%d: stream (%d,%d) != serial (%d,%d)",
						tc.name, pb.name, budget, agreeB, totalB, agreeS, totalS)
				}
				if ws.Probes(0) != wb.Probes(0) {
					t.Fatalf("%s/%s budget=%d: stream charged %d probes, serial %d",
						tc.name, pb.name, budget, wb.Probes(0), ws.Probes(0))
				}
				// Identical coin consumption: the streams must be in the
				// same state afterwards.
				for i := 0; i < 8; i++ {
					if x, y := rs.Intn(1<<20), rb.Intn(1<<20); x != y {
						t.Fatalf("%s/%s budget=%d: coin streams diverged after duel",
							tc.name, pb.name, budget)
					}
				}
			}
		}
	}
}

// TestDuelStreamAllocFree: the word-level duel allocates nothing, on both
// the identity and the batching (strided) paths.
func TestDuelStreamAllocFree(t *testing.T) {
	strided := stridedObjs(128, 5)
	ident := identityObjs(128*5 - 1)
	w := buildWorld(41, 2, 128*5)
	for name, objs := range map[string][]int{"strided": strided, "identity": ident} {
		ctx := newDuelCtx(w, 0, objs)
		a := w.TruthVector(0).Gather(objs)
		b := flipped(a, xrand.New(5), 60)
		rng := xrand.New(4)
		if avg := testing.AllocsPerRun(50, func() {
			duelProbesStream(&ctx, a, b, rng, 13)
		}); avg != 0 {
			t.Fatalf("%s duel allocates %.1f times per run, want 0", name, avg)
		}
	}
}

// TestDepositMatchesPopLoop: deposit selects the same bits of x as the
// per-rank pop loop the duel walk used before it.
func TestDepositMatchesPopLoop(t *testing.T) {
	rng := xrand.New(9)
	for i := 0; i < 2000; i++ {
		x := rng.Uint64() & rng.Uint64()
		if i%7 == 0 {
			x = ^uint64(0)
		}
		c := bits.OnesCount64(x)
		r := rng.Uint64() & (1<<uint(c) - 1)
		var want uint64
		for k := 0; k < c; k++ {
			if r>>uint(k)&1 != 0 {
				y := x
				for s := k; s > 0; s-- {
					y &= y - 1
				}
				want |= y & -y
			}
		}
		if got := deposit(r, x); got != want {
			t.Fatalf("deposit(%#x, %#x) = %#x, want %#x", r, x, got, want)
		}
	}
}
