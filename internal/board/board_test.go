package board

import (
	"slices"
	"sync"
	"testing"

	"collabscore/internal/bitvec"
)

// write publishes one cell through WriteWord.
func write(b *Board, p, o int, v bool) {
	bit := uint64(1) << uint(o%64)
	var val uint64
	if v {
		val = bit
	}
	b.WriteWord(p, o/64, bit, val)
}

// cell reads player p's published bit for object o on a one-plane board.
func cell(b *Board, p, o int) (value, ok bool) {
	v, ok := cellValue(b, p, o)
	return v == 1, ok
}

// cellValue reads player p's published value for object o straight from
// the lane, uncounted: the per-cell reference the word-level API is
// checked against.
func cellValue(b *Board, p, o int) (value int, ok bool) {
	c := b.slab[b.cell(p, o/64):]
	bit := uint(o % 64)
	for l := 0; l < b.k; l++ {
		value |= int(c[1+l]>>bit&1) << l
	}
	return value, c[0]>>bit&1 == 1
}

// votes is the per-cell tally reference: the published values for object o
// among players, skipping players that did not publish for o.
func votes(b *Board, o int, players []int) (ones, zeros int) {
	for _, p := range players {
		v, ok := cell(b, p, o)
		switch {
		case !ok:
		case v:
			ones++
		default:
			zeros++
		}
	}
	return ones, zeros
}

// majorityBit reports MajorityWord's verdict for object o.
func majorityBit(f *Frozen, o int, players []int) bool {
	return f.MajorityWord(o/64, players)&(1<<uint(o%64)) != 0
}

func TestWriteRead(t *testing.T) {
	b := New(3, 5)
	if _, ok := cell(b, 0, 0); ok {
		t.Fatal("fresh board has data")
	}
	write(b, 0, 0, true)
	v, ok := cell(b, 0, 0)
	if !ok || !v {
		t.Fatalf("cell = (%v,%v), want (true,true)", v, ok)
	}
	write(b, 1, 4, false)
	v, ok = cell(b, 1, 4)
	if !ok || v {
		t.Fatalf("cell = (%v,%v), want (false,true)", v, ok)
	}
}

func TestFirstWriteWins(t *testing.T) {
	b := New(1, 1)
	write(b, 0, 0, true)
	write(b, 0, 0, false) // attempt to flip-flop
	v, ok := cell(b, 0, 0)
	if !ok || !v {
		t.Fatal("second write overrode the first")
	}
}

func TestLaneIsolation(t *testing.T) {
	// Player 1's writes must never affect player 0's lane.
	b := New(2, 4)
	write(b, 0, 2, true)
	b.WriteWord(1, 0, 0b1111, 0)
	v, ok := cell(b, 0, 2)
	if !ok || !v {
		t.Fatal("player 1 corrupted player 0's lane")
	}
	if _, ok := cell(b, 0, 1); ok {
		t.Fatal("player 1's word write reached player 0's lane")
	}
}

// TestVotes: the frozen majority counts only publishers, and needs a strict
// majority of ones.
func TestVotes(t *testing.T) {
	b := New(5, 1)
	write(b, 0, 0, true)
	write(b, 1, 0, true)
	write(b, 2, 0, false)
	// players 3,4 abstain
	f := b.Freeze()
	if !majorityBit(f, 0, []int{0, 1, 2, 3, 4}) {
		t.Fatal("2 ones vs 1 zero (2 abstaining) is not a majority")
	}
	if majorityBit(f, 0, []int{3, 4}) {
		t.Fatal("abstainers produced a majority")
	}
	if majorityBit(f, 0, []int{0, 2}) {
		t.Fatal("a 1-1 tie produced a majority")
	}
}

func TestCounters(t *testing.T) {
	b := New(2, 2)
	b.WriteWord(0, 0, 0b11, 0b11)
	f := b.Freeze()
	f.MajorityWord(0, []int{0})
	if b.WriteCount() != 2 {
		t.Fatalf("WriteCount = %d, want 2", b.WriteCount())
	}
	if b.ReadCount() != 1 {
		t.Fatalf("ReadCount = %d, want 1", b.ReadCount())
	}
}

func TestConcurrentWrites(t *testing.T) {
	const n, m = 8, 256
	b := New(n, m)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < m; o++ {
				write(b, p, o, (p+o)%2 == 0)
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			v, ok := cell(b, p, o)
			if !ok || v != ((p+o)%2 == 0) {
				t.Fatalf("cell (%d,%d) = (%v,%v)", p, o, v, ok)
			}
		}
	}
	if b.WriteCount() != n*m {
		t.Fatalf("WriteCount = %d, want %d", b.WriteCount(), n*m)
	}
}

// TestFrozenReadsMatchBoard: a one-player frozen tally reads that player's
// lane back — its published ones, and zero where it published 0 or nothing.
func TestFrozenReadsMatchBoard(t *testing.T) {
	b := New(4, 70)
	write(b, 0, 3, true)
	write(b, 1, 3, false)
	write(b, 2, 7, true)
	b.WriteWord(3, 1, 0b101, 0b100)
	f := b.Freeze()
	for p := 0; p < 4; p++ {
		for o := 0; o < 70; o++ {
			v, ok := cell(b, p, o)
			if got := majorityBit(f, o, []int{p}); got != (ok && v) {
				t.Fatalf("cell (%d,%d): frozen tally %v, lane (%v,%v)", p, o, got, v, ok)
			}
		}
	}
}

func TestFrozenReadsAreCounted(t *testing.T) {
	b := New(2, 2)
	write(b, 0, 0, true)
	before := b.ReadCount()
	f := b.Freeze()
	f.MajorityWord(0, []int{0})
	f.MajorityWord(0, []int{0, 1})
	if got := b.ReadCount() - before; got != 3 {
		t.Fatalf("frozen reads counted %d, want 3", got)
	}
}

// TestWriteAfterFreezePanics: the seal is checked before first-write-wins,
// so even re-publishing an already written cell panics after Freeze.
func TestWriteAfterFreezePanics(t *testing.T) {
	b := New(1, 1)
	write(b, 0, 0, true)
	b.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("write after Freeze did not panic")
		}
	}()
	write(b, 0, 0, false)
}

// TestFrozenConcurrentReads exercises the lock-free tally path under the
// race detector: a parallel publish phase, a Freeze barrier, then many
// goroutines reading the immutable view at once.
func TestFrozenConcurrentReads(t *testing.T) {
	const n, m = 8, 256
	b := New(n, m)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for o := 0; o < m; o++ {
				write(b, p, o, (p*o)%3 == 0)
			}
		}(p)
	}
	wg.Wait()
	f := b.Freeze()
	players := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := 0; o < m; o++ {
				if got := majorityBit(f, o, []int{o % n}); got != ((o%n)*o%3 == 0) {
					t.Errorf("frozen cell (%d,%d) = %v", o%n, o, got)
				}
				ones, zeros := votes(b, o, players)
				if got := majorityBit(f, o, players); got != (ones > zeros) {
					t.Errorf("object %d: majority %v, votes %d/%d", o, got, ones, zeros)
				}
			}
		}()
	}
	wg.Wait()
}

func TestDims(t *testing.T) {
	b := New(3, 7)
	if b.Players() != 3 || b.Objects() != 7 {
		t.Fatalf("dims = (%d,%d), want (3,7)", b.Players(), b.Objects())
	}
}

// TestWriteWordSemantics: word writes keep per-cell first-write-wins
// against earlier word writes, mask the tail, and count one write per cell
// published.
func TestWriteWordSemantics(t *testing.T) {
	b := New(2, 70) // two words, 6-bit tail
	write(b, 0, 1, true)
	b.WriteWord(0, 0, 0b0110, 0b0000) // cell 1 already written true: must stick
	if v, ok := cell(b, 0, 1); !ok || !v {
		t.Fatalf("cell (0,1) = (%v,%v), want first write (true,true)", v, ok)
	}
	if v, ok := cell(b, 0, 2); !ok || v {
		t.Fatalf("cell (0,2) = (%v,%v), want (false,true)", v, ok)
	}
	// Values outside written must be ignored.
	b.WriteWord(0, 0, 0b1000, ^uint64(0))
	if v, ok := cell(b, 0, 3); !ok || !v {
		t.Fatalf("cell (0,3) = (%v,%v), want (true,true)", v, ok)
	}
	if _, ok := cell(b, 0, 4); ok {
		t.Fatal("cell (0,4) written despite written mask bit clear")
	}
	// Tail word: bits past Objects() are masked off.
	b.WriteWord(1, 1, ^uint64(0), ^uint64(0))
	for o := 64; o < 70; o++ {
		if v, ok := cell(b, 1, o); !ok || !v {
			t.Fatalf("tail cell (1,%d) = (%v,%v)", o, v, ok)
		}
	}
	// writes: 1 (single cell) + 2 (word cells) + 1 (word cell) + 6 (valid tail cells)
	if got := b.WriteCount(); got != 10 {
		t.Fatalf("WriteCount = %d, want 10", got)
	}
}

// TestWriteVector publishes a whole sparse lane word by word, the way the
// workshare flushes a prober's assignment, and rejects a word index past
// the lane.
func TestWriteVector(t *testing.T) {
	b := New(2, 130)
	written := make([]bool, 130)
	values := make([]bool, 130)
	for o := 0; o < 130; o += 3 {
		written[o] = true
		values[o] = o%2 == 0
	}
	wv, vv := bitvec.FromBools(written), bitvec.FromBools(values)
	for wi := 0; wi < wv.Words(); wi++ {
		b.WriteWord(1, wi, wv.Word(wi), vv.Word(wi))
	}
	for o := 0; o < 130; o++ {
		v, ok := cell(b, 1, o)
		if ok != written[o] {
			t.Fatalf("cell (1,%d): ok = %v, want %v", o, ok, written[o])
		}
		if ok && v != values[o] {
			t.Fatalf("cell (1,%d): value = %v, want %v", o, v, values[o])
		}
	}
	if got, want := b.WriteCount(), int64(wv.Count()); got != want {
		t.Fatalf("WriteCount = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range WriteWord did not panic")
		}
	}()
	b.WriteWord(0, wv.Words(), 1, 1)
}

// TestWriteWordAfterFreezePanics: the publish/tally ordering contract on an
// empty sealed board.
func TestWriteWordAfterFreezePanics(t *testing.T) {
	b := New(1, 64)
	b.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("WriteWord after Freeze did not panic")
		}
	}()
	b.WriteWord(0, 0, 1, 1)
}

// TestWordTallyMatchesVotes pins the word-level tally against the
// per-object reference on randomized boards: MajorityWord bits must agree
// with the per-cell votes majority.
func TestWordTallyMatchesVotes(t *testing.T) {
	const n, m = 37, 200
	s := uint64(42)
	next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
	b := New(n, m)
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			switch next() % 3 {
			case 0:
				write(b, p, o, next()&1 == 1)
			case 1: // leave unwritten
			case 2:
				if o%64 == 0 {
					w := next() | 1
					b.WriteWord(p, o/64, w, next())
				}
			}
		}
	}
	f := b.Freeze()
	players := make([]int, n)
	for i := range players {
		players[i] = i
	}
	for wi := 0; wi < (m+63)/64; wi++ {
		mw := f.MajorityWord(wi, players)
		for bpos := 0; bpos < 64; bpos++ {
			o := wi*64 + bpos
			if o >= m {
				if mw&(1<<uint(bpos)) != 0 {
					t.Fatalf("tail object %d has a majority bit", o)
				}
				continue
			}
			wantOnes, wantZeros := votes(b, o, players)
			wantMaj := wantOnes > wantZeros
			if gotMaj := mw&(1<<uint(bpos)) != 0; gotMaj != wantMaj {
				t.Fatalf("object %d: MajorityWord bit = %v, votes majority = %v", o, gotMaj, wantMaj)
			}
		}
	}
}

// TestMajorityWordAllocFree: the frozen word tallies must not allocate,
// on a one-plane board (MajorityWord) or a three-plane one (MedianWords).
func TestMajorityWordAllocFree(t *testing.T) {
	const n, m = 64, 1024
	players := make([]int, n)
	for i := range players {
		players[i] = i
	}
	for _, k := range []int{1, 3} {
		b := randomBoard(uint64(k), n, m, k)
		f := b.Freeze()
		var sink uint64
		dst := make([]uint64, k)
		if a := testing.AllocsPerRun(100, func() {
			for wi := 0; wi < (m+63)/64; wi++ {
				if k == 1 {
					sink += f.MajorityWord(wi, players)
				} else {
					f.MedianWords(wi, players, dst)
					sink += dst[0]
				}
			}
		}); a != 0 {
			t.Fatalf("k=%d: word tally allocates %v times per run", k, a)
		}
		_ = sink
	}
}

// median is the sort oracle of MedianWords: the lower median of xs (xs is
// sorted in place), 0 for none.
func median(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[(len(xs)-1)/2]
}

// lcg is a small deterministic generator for randomized boards.
type lcg uint64

func (s *lcg) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	x := uint64(*s)
	return x ^ x>>29
}

// randomBoard returns an n-player board of k planes over m objects whose
// lanes each publish, per object word, nothing, a random partial mask or
// every object, with random values.
func randomBoard(seed uint64, n, m, k int) *Board {
	b := NewPlanes(n, m, k)
	rng := lcg(seed)
	vals := make([]uint64, k)
	for p := 0; p < n; p++ {
		for wi := 0; wi < b.words; wi++ {
			var written uint64
			switch rng.next() % 3 {
			case 1:
				written = rng.next() & rng.next()
			case 2:
				written = ^uint64(0)
			}
			for l := range vals {
				vals[l] = rng.next()
			}
			b.WritePlanes(p, wi, written, vals)
		}
	}
	return b
}

// checkMedians compares every object's MedianWords value over players
// against the sort oracle on the players that wrote the object.
func checkMedians(t *testing.T, b *Board, f *Frozen, players []int) {
	t.Helper()
	dst := make([]uint64, b.k)
	var vals []int
	for wi := 0; wi < b.words; wi++ {
		f.MedianWords(wi, players, dst)
		for bit := 0; bit < 64; bit++ {
			got := 0
			for l, x := range dst {
				got |= int(x>>uint(bit)&1) << l
			}
			vals = vals[:0]
			if o := wi*64 + bit; o < b.m {
				for _, p := range players {
					if v, ok := cellValue(b, p, o); ok {
						vals = append(vals, v)
					}
				}
			}
			if want := median(vals); got != want {
				t.Fatalf("k=%d, %d players, object %d: median %d, oracle %d over %v", b.k, len(players), wi*64+bit, got, want, vals)
			}
		}
	}
}

// TestMedianWordsMatchesSortOracle pins the bit-serial median against the
// sort oracle on random boards of 1, 2, 3 and 16 planes, with empty,
// partial and full written masks, over odd and even consulted sets (so odd
// and even vote counts), a lone player and nobody.
func TestMedianWordsMatchesSortOracle(t *testing.T) {
	const n, m = 23, 200
	for _, k := range []int{1, 2, 3, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			b := randomBoard(seed*97+uint64(k), n, m, k)
			f := b.Freeze()
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			checkMedians(t, b, f, all)
			checkMedians(t, b, f, all[:n-1])
			checkMedians(t, b, f, []int{3, 17, 5, 11})
			checkMedians(t, b, f, []int{int(seed)})
			checkMedians(t, b, f, nil)
		}
	}
}

// wordTally is the per-bit strict-majority tally that MajorityWord
// replaced: bit-sliced ones and totals, decoded object by object.
type wordTally struct {
	ones, total tally
}

// newWordTally returns an empty per-bit tally at full width.
func newWordTally() wordTally {
	return wordTally{ones: tally{w: tallyPlanes}, total: tally{w: tallyPlanes}}
}

// majority returns the word whose bit b is set iff strictly more than half
// of the votes for object bit b are ones (no votes → 0).
func (t *wordTally) majority() uint64 {
	var maj uint64
	for b := 0; b < 64; b++ {
		var ones, total int
		for k := tallyPlanes - 1; k >= 0; k-- {
			ones = ones<<1 | int(t.ones.p[k]>>uint(b)&1)
			total = total<<1 | int(t.total.p[k]>>uint(b)&1)
		}
		if 2*ones > total {
			maj |= 1 << uint(b)
		}
	}
	return maj
}

// TestMajorityWordMatchesPerBitTally: on a one-plane board the median is
// the strict-majority rule, word for word against the per-bit tally.
func TestMajorityWordMatchesPerBitTally(t *testing.T) {
	const n, m = 40, 300
	b := randomBoard(7, n, m, 1)
	f := b.Freeze()
	for size := 0; size <= n; size++ {
		players := make([]int, size)
		for i := range players {
			players[i] = (i * 7) % n
		}
		for wi := 0; wi < b.words; wi++ {
			wt := newWordTally()
			for _, p := range players {
				c := b.slab[b.cell(p, wi):]
				wt.total.carry(small{b0: c[0]})
				wt.ones.carry(small{b0: c[0] & c[1]})
			}
			if got, want := f.MajorityWord(wi, players), wt.majority(); got != want {
				t.Fatalf("%d players, word %d: MajorityWord %064b, per-bit tally %064b", size, wi, got, want)
			}
		}
	}
}

// TestFirstWriteWinsEveryPlane: a second write of other values changes no
// plane of a written cell, while the cells it newly covers take its values.
func TestFirstWriteWinsEveryPlane(t *testing.T) {
	const k = 3
	b := NewPlanes(1, 64, k)
	b.WritePlanes(0, 0, 0b0011, []uint64{0b01, 0b10, 0b11})
	b.WritePlanes(0, 0, 0b0111, []uint64{^uint64(0), 0, 0b100})
	for o, want := range []int{0b101, 0b110, 0b101} {
		if v, ok := cellValue(b, 0, o); !ok || v != want {
			t.Fatalf("cell %d = (%d,%v), want (%d,true)", o, v, ok, want)
		}
	}
	if _, ok := cellValue(b, 0, 3); ok {
		t.Fatal("cell 3 written outside both masks")
	}
	if got := b.WriteCount(); got != 5 {
		t.Fatalf("WriteCount = %d, want 5 (one per masked cell)", got)
	}
}

// TestPlaneShapePanics: a plane count outside [1, MaxPlaneBits], a write
// or a tally with the wrong number of plane words, and a tally word past
// the objects all panic.
func TestPlaneShapePanics(t *testing.T) {
	b := NewPlanes(2, 70, 2)
	for name, f := range map[string]func(){
		"k=0":          func() { NewPlanes(1, 1, 0) },
		"k too large":  func() { NewPlanes(1, 1, bitvec.MaxPlaneBits+1) },
		"write planes": func() { b.WritePlanes(0, 0, 1, []uint64{1}) },
		"write word":   func() { b.WriteWord(0, 0, 1, 1) },
		"median dst":   func() { b.Freeze().MedianWords(0, []int{0}, make([]uint64, 1)) },
		"median word":  func() { b.Freeze().MedianWords(2, []int{0}, make([]uint64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzMedianWords checks MedianWords against the sort oracle on boards
// built from the fuzz input: a plane count, a consulted-set mask, and
// per-lane written masks and values.
func FuzzMedianWords(f *testing.F) {
	f.Add(uint8(3), uint16(0x7F), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint16(0xFFFF), []byte{0xFF, 0, 0xAA, 0x55})
	f.Fuzz(func(t *testing.T, k uint8, consult uint16, data []byte) {
		const n, m = 16, 70
		kk := 1 + int(k)%16
		b := NewPlanes(n, m, kk)
		vals := make([]uint64, kk)
		next := func() uint64 {
			if len(data) == 0 {
				return 0
			}
			x := uint64(data[0]) * 0x0101010101010101
			x ^= x << uint(data[0]%17) // spread one byte across the word
			data = data[1:]
			return x
		}
		for p := 0; p < n; p++ {
			for wi := 0; wi < b.words; wi++ {
				written := next()
				for l := range vals {
					vals[l] = next()
				}
				b.WritePlanes(p, wi, written, vals)
			}
		}
		var players []int
		for p := 0; p < n; p++ {
			if consult>>uint(p)&1 == 1 {
				players = append(players, p)
			}
		}
		checkMedians(t, b, b.Freeze(), players)
	})
}

// TestReleaseClearsReusedSlab: a board built after another was released
// starts empty whether or not it reuses the released slab, and the
// released board can no longer be written.
func TestReleaseClearsReusedSlab(t *testing.T) {
	const n, m, k = 9, 130, 3
	b := randomBoard(5, n, m, k)
	b.Release()
	fresh := NewPlanes(n, m, k)
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			if v, ok := cellValue(fresh, p, o); ok || v != 0 {
				t.Fatalf("cell (%d,%d) of a new board = (%d,%v)", p, o, v, ok)
			}
		}
	}
	if fresh.WriteCount() != 0 || fresh.ReadCount() != 0 {
		t.Fatal("a new board starts with traffic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("write to a released board did not panic")
		}
	}()
	b.WritePlanes(0, 0, 1, make([]uint64, k))
}
