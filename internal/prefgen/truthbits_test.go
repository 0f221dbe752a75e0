package prefgen

import (
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

// TestLazyFlipLookupMatchesScan pins the binary-search flip lookup to the
// linear scan on players with many edits (a large planted radius over many
// words), for every word of every player, present or not.
func TestLazyFlipLookupMatchesScan(t *testing.T) {
	const n, m = 16, 64 * 600
	for _, in := range []*Instance{
		LazyDiameterClusters(xrand.New(8), n, m, 4, 600, 0),
		LazyZipfClusters(xrand.New(9), n, m, 3, 1.1, 600),
	} {
		lz := in.Source().(*Lazy)
		most := int32(0)
		for p := 0; p < n; p++ {
			most = max(most, lz.flipStart[p+1]-lz.flipStart[p])
			for wi := 0; wi < lz.words; wi++ {
				if got, want := lz.flipMaskAt(p, wi), flipMaskAtScan(lz, p, wi); got != want {
					t.Fatalf("flipMaskAt(%d,%d) = %#x, scan %#x", p, wi, got, want)
				}
			}
		}
		if most < 100 {
			t.Fatalf("busiest player has %d flip entries; the oracle needs many", most)
		}
	}
}
