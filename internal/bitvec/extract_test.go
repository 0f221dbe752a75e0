package bitvec

import (
	"fmt"
	"testing"
)

// extractOracle is the per-bit gather: bit ℓ of value j of the output is
// bit ℓ of source value pos[j].
func extractOracle(src Planes, pos []int) Planes {
	out := NewPlanes(len(pos), src.k)
	for j, i := range pos {
		for l := 0; l < src.k; l++ {
			out.words[l*out.stride+j/wordBits] |= (src.PlaneWord(l, i/wordBits) >> (uint(i) % wordBits) & 1) << (uint(j) % wordBits)
		}
	}
	return out
}

// Scatter writes bit j of src into position idx[j] of v, for all j, one
// Set per bit: the oracle of the compiled Extraction.Scatter. It panics if
// len(idx) != src.Len().
func (v Vector) Scatter(idx []int, src Vector) {
	if len(idx) != src.n {
		panic("bitvec: scatter length mismatch")
	}
	for j, i := range idx {
		v.Set(i, src.Get(j))
	}
}

// plane returns plane l of pl as a Vector sharing its words.
func plane(pl Planes, l int) Vector {
	return Vector{n: pl.n, words: pl.words[l*pl.stride : (l+1)*pl.stride]}
}

// extractAll applies e to src, handing each run its whole source word
// (bits outside the run's mask included, which Extract must ignore).
func extractAll(e *Extraction, src Planes) Planes {
	out := NewPlanes(e.Len(), src.k)
	in := make([]uint64, src.k)
	for r := 0; r < e.Runs(); r++ {
		wi, _ := e.Run(r)
		for l := range in {
			in[l] = src.PlaneWord(l, wi)
		}
		e.Extract(out, r, in)
	}
	return out
}

// extractVector gathers v through e a word at a time (ExtractWord),
// handing each run its whole source word.
func extractVector(e *Extraction, v Vector) Vector {
	out := New(e.Len())
	for r := 0; r < e.Runs(); r++ {
		wi, _ := e.Run(r)
		e.ExtractWord(out, r, v.Word(wi))
	}
	return out
}

// randomPlanes returns n values of k bits drawn from seed.
func randomPlanes(n, k int, seed uint64) Planes {
	pl := NewPlanes(n, k)
	for wi := 0; wi < pl.stride; wi++ {
		for l := 0; l < k; l++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			pl.SetPlaneWord(l, wi, seed^seed<<29)
		}
	}
	return pl
}

// extractLists are position lists over a 200-value source (3·64 + 8: a
// short final word): empty, one, sorted, unsorted, duplicates, strided
// (three output words, the last holding 2), descending (every run one
// value, output words straddling source words), a full word whose run
// starts at output bit 1 (spilling into the next output word), and every
// position in order (full runs, aligned).
func extractLists() map[string][]int {
	const m = 200
	lists := map[string][]int{
		"empty":      {},
		"one":        {199},
		"sorted":     {0, 1, 2, 63, 64, 65, 127, 128, 190, 199},
		"unsorted":   {130, 5, 64, 65, 2, 199, 99, 64, 0, 191},
		"duplicates": {7, 7, 7, 70, 7, 70, 199, 199},
	}
	var strided, desc, spill, all []int
	for o := 0; len(strided) < 130; o = (o + 37) % m {
		strided = append(strided, o)
	}
	spill = append(spill, 150)
	for o := 0; o < m; o++ {
		desc = append(desc, m-1-o)
		all = append(all, o)
		if o < 64 || o >= 128 {
			spill = append(spill, o)
		}
	}
	lists["strided"], lists["descending"], lists["spill"], lists["all"] = strided, desc, spill, all
	return lists
}

// TestExtractionMatchesPerBitOracle pins the compiled extraction against
// the per-bit gather on every list of extractLists, for k ∈ {1, 3, 8, 32}.
func TestExtractionMatchesPerBitOracle(t *testing.T) {
	for name, pos := range extractLists() {
		for _, k := range []int{1, 3, 8, 32} {
			src := randomPlanes(200, k, uint64(k*1000+len(pos)))
			e := CompileExtraction(pos, 200)
			if e.Len() != len(pos) || e.SourceLen() != 200 {
				t.Fatalf("%s: Len %d, SourceLen %d", name, e.Len(), e.SourceLen())
			}
			if got, want := extractAll(e, src), extractOracle(src, pos); !got.Equal(want) {
				t.Fatalf("%s k=%d: extraction %v, oracle %v", name, k, got.Ints(), want.Ints())
			}
		}
	}
}

// TestScatterMatchesPerBitOracle pins the compiled scatter against
// Vector.Scatter on every list of extractLists (empty, one position,
// sorted, unsorted, duplicates, strided, descending, runs straddling
// output words, every position, over a source with a short final word),
// into a destination whose other bits are random and must survive, and
// the one-plane gather against the per-bit Gather.
func TestScatterMatchesPerBitOracle(t *testing.T) {
	for name, pos := range extractLists() {
		e := CompileExtraction(pos, 200)
		src := plane(randomPlanes(len(pos), 1, uint64(len(pos))), 0)
		got := plane(randomPlanes(200, 1, 7), 0)
		want := got.Clone()
		e.Scatter(got, src)
		want.Scatter(pos, src)
		if !got.Equal(want) {
			t.Errorf("%s: scatter %v, oracle %v", name, got, want)
		}
		if g, w := extractVector(e, got), got.Gather(pos); !g.Equal(w) {
			t.Errorf("%s: ExtractWord gather %v, Gather %v", name, g, w)
		}
	}
}

// TestScatterShapeCheck: a source or destination of the wrong length
// panics before any word is written.
func TestScatterShapeCheck(t *testing.T) {
	e := CompileExtraction([]int{1, 5, 64}, 100)
	for _, tc := range []struct{ dst, src int }{{100, 2}, {99, 3}} {
		func() {
			dst := New(tc.dst)
			defer func() {
				if recover() == nil || dst.Count() != 0 {
					t.Errorf("dst %d, src %d: no panic, or bits written", tc.dst, tc.src)
				}
			}()
			e.Scatter(dst, New(tc.src).Not())
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("ExtractWord into a vector of the wrong length: no panic")
		}
	}()
	e.ExtractWord(New(2), 0, ^uint64(0))
}

// TestExtractionRuns: a run is a maximal stretch of list entries in one
// source word with strictly ascending positions, so a sorted list has one
// run per touched word and a duplicate or a step back starts a new run.
func TestExtractionRuns(t *testing.T) {
	for _, tc := range []struct {
		pos  []int
		runs []uint64 // per run: source word << 32 | popcount of its mask
	}{
		{nil, nil},
		{[]int{0, 1, 63, 64, 199}, []uint64{0<<32 | 3, 1<<32 | 1, 3<<32 | 1}},
		{[]int{5, 3, 3, 4, 70}, []uint64{0<<32 | 1, 0<<32 | 1, 0<<32 | 2, 1<<32 | 1}},
	} {
		e := CompileExtraction(tc.pos, 200)
		var got []uint64
		for r := 0; r < e.Runs(); r++ {
			wi, mask := e.Run(r)
			got = append(got, uint64(wi)<<32|uint64(popcount(mask)))
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.runs) {
			t.Errorf("%v: runs %v, want %v", tc.pos, got, tc.runs)
		}
	}
}

// TestCompileExtractionRangeCheck: a position outside [0, n) anywhere in
// the list panics at compile time.
func TestCompileExtractionRangeCheck(t *testing.T) {
	for _, pos := range [][]int{{0, 70, 200}, {5, -1}, {1 << 20}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: no panic", pos)
				}
			}()
			CompileExtraction(pos, 200)
		}()
	}
}

// FuzzExtraction cross-checks the compiled extraction against the per-bit
// gather on arbitrary position lists (two bytes per position, reduced
// modulo the source length), source lengths and plane counts.
func FuzzExtraction(f *testing.F) {
	f.Add([]byte{}, uint16(200), uint8(3), uint64(1))
	f.Add([]byte{199, 0}, uint16(200), uint8(1), uint64(2))
	f.Add([]byte{0, 0, 1, 0, 2, 0, 63, 0, 64, 0, 9, 0, 9, 0, 130, 0}, uint16(131), uint8(8), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, kSel uint8, seed uint64) {
		if n == 0 {
			return
		}
		k := 1 + int(kSel)%MaxPlaneBits
		pos := make([]int, len(data)/2)
		for j := range pos {
			pos[j] = (int(data[2*j]) | int(data[2*j+1])<<8) % int(n)
		}
		src := randomPlanes(int(n), k, seed)
		e := CompileExtraction(pos, int(n))
		if got, want := extractAll(e, src), extractOracle(src, pos); !got.Equal(want) {
			t.Fatalf("n=%d k=%d %v: extraction %v, oracle %v", n, k, pos, got.Ints(), want.Ints())
		}
		// Scatter after gather is the identity on the compiled positions
		// and leaves every other position of the destination alone.
		v := plane(src, 0)
		bg := plane(randomPlanes(int(n), 1, ^seed), 0)
		got, want := bg.Clone(), bg.Clone()
		e.Scatter(got, extractVector(e, v))
		for _, i := range pos {
			want.Set(i, v.Get(i))
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d %v: scatter of the gather %v, want %v", n, pos, got, want)
		}
	})
}
