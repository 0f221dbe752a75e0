package prefgen

import (
	"math/bits"
	"testing"
	"testing/quick"

	"collabscore/internal/xrand"
)

// flipMaskAtScan is the linear-scan reference for Lazy.flipMaskAt: the
// historical lookup, walking player p's word-ascending flip entries.
func flipMaskAtScan(lz *Lazy, p, wi int) uint64 {
	if lz.flipStart == nil {
		return 0
	}
	lo, hi := lz.flipStart[p], lz.flipStart[p+1]
	for i := lo; i < hi; i++ {
		if int(lz.flipWord[i]) == wi {
			return lz.flipMask[i]
		}
	}
	return 0
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestLazyTruthBitsMatchesWord pins the masked read: for every lazy family,
// TruthBits(p, wi, mask) equals TruthWord(p, wi) & mask equals the dense
// oracle's masked word, for random masks and for the empty, full, one-bit
// and tail-word masks. Out-of-range word reads panic on both
// representations.
func TestLazyTruthBitsMatchesWord(t *testing.T) {
	const n, m = 24, 333 // 6 words, 13 live bits in the tail word
	words := (m + 63) / 64
	for _, c := range lazyCases(6, 4, 40, 1.1) {
		dense := NewDense(c.dense(xrand.New(77), n, m).Truth)
		src := c.lazy(xrand.New(77), n, m).Source()
		err := quick.Check(func(rawP, rawWi uint8, mask uint64, shape uint8) bool {
			p, wi := int(rawP)%n, int(rawWi)%words
			switch shape % 5 {
			case 0:
				mask = 0
			case 1:
				mask = ^uint64(0)
			case 2:
				mask = 1 << (mask % 64)
			case 3:
				wi = words - 1 // tail word: bits past m must read zero
			}
			got := src.TruthBits(p, wi, mask)
			if got != src.TruthWord(p, wi)&mask || got != dense.TruthBits(p, wi, mask) {
				t.Logf("%s: TruthBits(%d,%d,%#x) = %#x, word&mask %#x, dense %#x",
					c.name, p, wi, mask, got, src.TruthWord(p, wi)&mask, dense.TruthBits(p, wi, mask))
				return false
			}
			return true
		}, &quick.Config{MaxCount: 400})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, wi := range []int{-1, words} {
			if !panics(func() { src.TruthBits(0, wi, 1) }) || !panics(func() { dense.TruthBits(0, wi, 1) }) {
				t.Fatalf("%s: TruthBits(0,%d) must panic on both representations", c.name, wi)
			}
		}
	}
}

// TestLazyFlipLookupMatchesScan pins the filtered flip lookup to the linear
// scan, for every word of every player, present or not, over both clustered
// families and every filter shape: single-word buckets where the rank start
// is exact (m ≤ 4096), 16-word buckets that collide (600 words), a 65-word
// tail that makes buckets two words wide, players without edits, and D = 0,
// where no player has any. Each filter bit must be set exactly when the scan
// finds an edit in its bucket.
func TestLazyFlipLookupMatchesScan(t *testing.T) {
	cases := []struct {
		name        string
		n, m        int
		diameter    int
		shift       uint
		minEdits    int32 // the busiest player has at least this many entries
		wantNoEdits bool  // some player has no edits
	}{
		{"exact-rank", 16, 4096, 600, 0, 50, false},
		{"buckets-16", 16, 64 * 600, 600, 4, 100, false},
		{"tail-65", 16, 4097, 600, 1, 50, false},
		{"some-empty", 40, 4096, 2, 0, 1, true},
		{"d=0", 16, 4097, 0, 1, 0, true},
	}
	for _, c := range cases {
		for _, in := range []*Instance{
			LazyDiameterClusters(xrand.New(8), c.n, c.m, 4, c.diameter, 0),
			LazyZipfClusters(xrand.New(9), c.n, c.m, 3, 1.1, c.diameter),
		} {
			lz := in.Source().(*Lazy)
			if lz.flipShift != c.shift {
				t.Fatalf("%s: flipShift = %d, want %d", c.name, lz.flipShift, c.shift)
			}
			most, empty, collided := int32(0), 0, false
			for p := 0; p < c.n; p++ {
				ents := lz.flipStart[p+1] - lz.flipStart[p]
				most = max(most, ents)
				if ents == 0 {
					empty++
				}
				var seen uint64
				for wi := 0; wi < lz.words; wi++ {
					want := flipMaskAtScan(lz, p, wi)
					if got := lz.flipMaskAt(p, wi); got != want {
						t.Fatalf("%s: flipMaskAt(%d,%d) = %#x, scan %#x", c.name, p, wi, got, want)
					}
					if want != 0 {
						seen |= 1 << (uint(wi) >> lz.flipShift)
					}
				}
				if lz.flipSeen[p] != seen {
					t.Fatalf("%s: player %d filter %#x, scan buckets %#x", c.name, p, lz.flipSeen[p], seen)
				}
				buckets := int32(bits.OnesCount64(seen))
				if c.shift == 0 && buckets != ents {
					t.Fatalf("%s: player %d has %d edits in %d one-word buckets", c.name, p, ents, buckets)
				}
				collided = collided || buckets < ents
			}
			if most < c.minEdits {
				t.Fatalf("%s: busiest player has %d flip entries, want ≥ %d", c.name, most, c.minEdits)
			}
			if c.wantNoEdits != (empty > 0) {
				t.Fatalf("%s: %d players without edits, want some: %v", c.name, empty, c.wantNoEdits)
			}
			if c.shift > 0 && c.minEdits > 0 && !collided {
				t.Fatalf("%s: no bucket holds two edits; the search past the rank start is untested", c.name)
			}
		}
	}
}

// TestLazyCentersMatchDense pins the stored center rows: every center word
// of both clustered families equals the dense generator's Instance.Centers
// word, tail words included. Uniform truth stores no centers.
func TestLazyCentersMatchDense(t *testing.T) {
	const n = 40
	for _, m := range []int{63, 129, 4097} {
		for _, c := range lazyCases(7, 5, 10, 1.1) {
			dense := c.dense(xrand.New(21), n, m)
			lz := c.lazy(xrand.New(21), n, m).Source().(*Lazy)
			if len(lz.centers) != len(dense.Centers)*lz.words {
				t.Fatalf("%s m=%d: %d center words, want %d centers × %d words",
					c.name, m, len(lz.centers), len(dense.Centers), lz.words)
			}
			for ci, center := range dense.Centers {
				for wi := 0; wi < lz.words; wi++ {
					if got, want := lz.centers[ci*lz.words+wi], center.Word(wi); got != want {
						t.Fatalf("%s m=%d: center %d word %d = %#x, want %#x", c.name, m, ci, wi, got, want)
					}
				}
			}
		}
	}
}
