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
				agreeB, totalB := duelProbesStream(&ctxB, a, b, a.Hamming(b), rb, budget)
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
// the identity and the batching (strided) paths, and neither does a whole
// Select over a general mapping whose probe cache fits inline (at most
// cacheStack words).
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
			duelProbesStream(&ctx, a, b, a.Hamming(b), rng, 13)
		}); avg != 0 {
			t.Fatalf("%s duel allocates %.1f times per run, want 0", name, avg)
		}
	}
	for _, objs := range [][]int{stridedObjs(64*cacheStack, 2), groupObjs(3, 32, 640)} {
		truth := w.TruthVector(1).Gather(objs)
		var cands []bitvec.Vector
		for i, flips := range []int{1, len(objs) / 2, len(objs) / 3, len(objs) / 4} {
			cands = append(cands, flipped(truth, xrand.New(uint64(i)), flips))
		}
		rng := xrand.New(6)
		bud := Scaled().SelectBudget(w.N())
		known := make([]uint64, (len(objs)+63)/64)
		for j := 0; j < len(objs); j += 3 {
			known[j/64] |= 1 << (uint(j) % 64)
		}
		for _, seed := range []*Seed{nil, {Known: known, Truth: truth}} {
			if avg := testing.AllocsPerRun(50, func() {
				Select(w, 1, objs, cands, 1, rng, bud, seed)
			}); avg != 0 {
				t.Fatalf("Select over %d mapped positions (seeded %v) allocates %.1f times per run, want 0", len(objs), seed != nil, avg)
			}
		}
	}
}

// TestProbeCacheHoldsProbedTruth: after a tournament's duels, the probe
// cache marks exactly the positions the duels fetched — their objects are
// exactly the player's charged probe set — and holds each one's truth
// bit, inline and in the heap spill, with and without repeated objects.
func TestProbeCacheHoldsProbedTruth(t *testing.T) {
	for _, tc := range []struct {
		name   string
		objs   []int
		worldM int
	}{
		{"group", groupObjs(8, 100, 2048), 2048},
		{"repeated", repeatedObjs(9, 90, 200), 200},
		{"spill", stridedObjs(700, 3), 2100},
	} {
		w := buildWorld(13, 2, tc.worldM)
		truth := w.TruthVector(0).Gather(tc.objs)
		a := flipped(truth, xrand.New(1), len(tc.objs)/5)
		ctx := newDuelCtx(w, 0, tc.objs)
		rng := xrand.New(3)
		for i, flips := range []int{5, len(tc.objs) / 2, len(tc.objs) / 3, 2} {
			b := flipped(truth, xrand.New(uint64(i)+2), flips)
			duelProbesStream(&ctx, a, b, a.Hamming(b), rng, 12)
		}
		cachedObjs := make(map[int]bool)
		for j, o := range tc.objs {
			known, val := ctx.cached(j >> 6)
			bit := uint64(1) << (uint(j) & 63)
			if *known&bit == 0 {
				continue
			}
			cachedObjs[o] = true
			if (*val&bit != 0) != truth.Get(j) {
				t.Fatalf("%s: position %d caches the wrong truth bit", tc.name, j)
			}
		}
		set := probeSet(w, 0, tc.worldM)
		if len(cachedObjs) == 0 || set.Count() != len(cachedObjs) {
			t.Fatalf("%s: %d objects cached, %d probed", tc.name, len(cachedObjs), set.Count())
		}
		for o := range cachedObjs {
			if !set.Get(o) {
				t.Fatalf("%s: object %d cached but never probed", tc.name, o)
			}
		}
	}
}

// selectSerial is Select with every duel on the bit-at-a-time duel —
// no probe cache and no word batching — the whole-tournament oracle for
// the per-tournament probe cache.
func selectSerial(w *world.World, p int, objs []int, candidates []bitvec.Vector, d int, rng *xrand.Stream, pr Params) int {
	k := len(candidates)
	if k == 0 {
		return -1
	}
	if k == 1 {
		return 0
	}
	budget := pairBudget(pr.SelectSampleFactor, w.N())
	near := pr.KeepWithin * max(d, 1)
	champ := 0
	for i := 1; i < k; i++ {
		if candidates[champ].Hamming(candidates[i]) <= near {
			continue
		}
		agreeA, total := duelProbesSerial(w, p, objs, candidates[champ], candidates[i], rng, budget)
		if total > 0 && 2*agreeA < total {
			champ = i
		}
	}
	return champ
}

// rselectSerial is RSelect on the bit-at-a-time duel, the oracle of
// selectSerial's kind for the pairwise tournament.
func rselectSerial(w *world.World, p int, objs []int, candidates []bitvec.Vector, rng *xrand.Stream, pr Params) int {
	k := len(candidates)
	if k == 0 {
		return -1
	}
	budget := pairBudget(pr.SampleFactor, w.N())
	alive := make([]bool, k)
	for i := range alive {
		alive[i] = true
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k && alive[i]; j++ {
			if !alive[j] {
				continue
			}
			agreeA, total := duelProbesSerial(w, p, objs, candidates[i], candidates[j], rng, budget)
			switch {
			case total == 0:
			case float64(agreeA) >= eliminateFrac*float64(total):
				alive[j] = false
			case float64(total-agreeA) >= eliminateFrac*float64(total):
				alive[i] = false
			}
		}
	}
	for i, a := range alive {
		if a {
			return i
		}
	}
	return 0
}

// probeSet returns the objects among the first m that player p has probed,
// read off the ledger: charging an object p already knows costs nothing.
// It charges every other object, so call it only after the run is done.
func probeSet(w *world.World, p, m int) bitvec.Vector {
	out := bitvec.New(m)
	for o := 0; o < m; o++ {
		before := w.Probes(p)
		w.ChargeBit(p, o)
		out.Set(o, w.Probes(p) == before)
	}
	return out
}

// TestTournamentCacheMatchesSerial: whole Select and RSelect tournaments
// with the per-tournament probe cache choose what the cache-free,
// bit-at-a-time tournaments choose, consume the same coins, and charge
// every player the same probes on the same objects. Mappings are
// SmallRadius-shaped groups, strided, unsorted with repeats, and shuffled,
// at widths on both sides of the word boundaries and of the inline cache
// (257 positions and up take the heap spill); budgets cover both the
// sampled and the probe-everything duel.
func TestTournamentCacheMatchesSerial(t *testing.T) {
	const n = 5
	params := []Params{Scaled(), Defaults(), {SampleFactor: 40, SelectSampleFactor: 40, KeepWithin: 1}}
	for _, width := range []int{1, 63, 64, 65, 256, 257, 1000} {
		worldM := 4*width + 64
		mappings := map[string][]int{
			"group":    groupObjs(uint64(width), 2*width, worldM)[:width],
			"strided":  stridedObjs(width, 3),
			"shuffled": xrand.New(uint64(width)).Perm(worldM)[:width],
		}
		if width > 1 {
			mappings["repeated"] = repeatedObjs(uint64(width), width, worldM)
		}
		for name, objs := range mappings {
			for pi, pr := range params {
				ws, wc := buildWorld(uint64(width)+3, n, worldM), buildWorld(uint64(width)+3, n, worldM)
				truth := ws.TruthVector(0).Gather(objs)
				var cands []bitvec.Vector
				for i, flips := range []int{width / 2, 1, width / 3, width / 4, 2, width, width / 8, width / 2} {
					cands = append(cands, flipped(truth, xrand.New(uint64(i)+9), min(flips, width)))
				}
				for p := 0; p < n; p++ {
					rs, rc := xrand.New(uint64(p)+1), xrand.New(uint64(p)+1)
					gotS, wantS := Select(wc, p, objs, cands, 1, rc, pr.SelectBudget(wc.N()), nil), selectSerial(ws, p, objs, cands, 1, rs, pr)
					gotR, wantR := RSelect(wc, p, objs, cands, rc, pr), rselectSerial(ws, p, objs, cands, rs, pr)
					if gotS != wantS || gotR != wantR {
						t.Fatalf("%s/%d/params%d player %d: chose (%d,%d), serial (%d,%d)", name, width, pi, p, gotS, gotR, wantS, wantR)
					}
					if rc.Uint64() != rs.Uint64() {
						t.Fatalf("%s/%d/params%d player %d: coin streams diverged", name, width, pi, p)
					}
					if wc.Probes(p) != ws.Probes(p) {
						t.Fatalf("%s/%d/params%d player %d: charged %d probes, serial %d", name, width, pi, p, wc.Probes(p), ws.Probes(p))
					}
				}
				for p := 0; p < n; p++ {
					if !probeSet(wc, p, worldM).Equal(probeSet(ws, p, worldM)) {
						t.Fatalf("%s/%d/params%d player %d: probed other objects than serial", name, width, pi, p)
					}
				}
			}
		}
	}
}

// TestSeededSelectMatchesSerial: a Select seeded with positions the
// player has already probed chooses what the cache-free serial Select
// chooses on a twin world with the same probes behind it, consumes the
// same coins, and leaves every player the same probe count and probe set.
// The seed's truth vector holds random bits off its known positions,
// which a seeded tournament must ignore. Mappings and widths are those of
// TestTournamentCacheMatchesSerial up to the heap spill.
func TestSeededSelectMatchesSerial(t *testing.T) {
	const n = 5
	params := []Params{Scaled(), Defaults(), {SelectSampleFactor: 40, KeepWithin: 1}}
	for _, width := range []int{1, 63, 64, 65, 256, 257} {
		worldM := 4*width + 64
		mappings := map[string][]int{
			"group":    groupObjs(uint64(width), 2*width, worldM)[:width],
			"strided":  stridedObjs(width, 3),
			"shuffled": xrand.New(uint64(width)).Perm(worldM)[:width],
		}
		if width > 1 {
			mappings["repeated"] = repeatedObjs(uint64(width), width, worldM)
		}
		for name, objs := range mappings {
			for pi, pr := range params {
				ws, wc := buildWorld(uint64(width)+5, n, worldM), buildWorld(uint64(width)+5, n, worldM)
				truth := ws.TruthVector(0).Gather(objs)
				var cands []bitvec.Vector
				for i, flips := range []int{width / 2, 1, width / 3, width / 4, 2, width, width / 8, width / 2} {
					cands = append(cands, flipped(truth, xrand.New(uint64(i)+9), min(flips, width)))
				}
				bud := pr.SelectBudget(wc.N())
				for p := 0; p < n; p++ {
					// Pre-probe a random subset of positions in both worlds
					// and seed from it, with noise off the known positions.
					pick := xrand.New(uint64(100*p + width))
					seed := Seed{Known: make([]uint64, (width+63)/64), Truth: bitvec.New(width)}
					for j, o := range objs {
						if pick.Intn(3) == 0 {
							seed.Known[j/64] |= 1 << (uint(j) % 64)
							seed.Truth.Set(j, wc.Probe(p, o))
							ws.Probe(p, o)
						} else {
							seed.Truth.Set(j, pick.Bool())
						}
					}
					rs, rc := xrand.New(uint64(p)+1), xrand.New(uint64(p)+1)
					got, want := Select(wc, p, objs, cands, 1, rc, bud, &seed), selectSerial(ws, p, objs, cands, 1, rs, pr)
					if got != want {
						t.Fatalf("%s/%d/params%d player %d: chose %d, serial %d", name, width, pi, p, got, want)
					}
					if rc.Uint64() != rs.Uint64() {
						t.Fatalf("%s/%d/params%d player %d: coin streams diverged", name, width, pi, p)
					}
					if wc.Probes(p) != ws.Probes(p) {
						t.Fatalf("%s/%d/params%d player %d: charged %d probes, serial %d", name, width, pi, p, wc.Probes(p), ws.Probes(p))
					}
				}
				for p := 0; p < n; p++ {
					if !probeSet(wc, p, worldM).Equal(probeSet(ws, p, worldM)) {
						t.Fatalf("%s/%d/params%d player %d: probed other objects than serial", name, width, pi, p)
					}
				}
			}
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

// newDuelCtx returns player p's duel state over the object mapping objs,
// for tests that keep a context of their own across duels.
func newDuelCtx(w *world.World, p int, objs []int) duelCtx {
	var ctx duelCtx
	ctx.init(w, p, objs)
	return ctx
}
