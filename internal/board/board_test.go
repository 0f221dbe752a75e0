package board

import (
	"sync"
	"testing"

	"collabscore/internal/bitvec"
)

func TestWriteRead(t *testing.T) {
	b := New(3, 5)
	if _, ok := b.Read(0, 0); ok {
		t.Fatal("fresh board has data")
	}
	b.Write(0, 0, true)
	v, ok := b.Read(0, 0)
	if !ok || !v {
		t.Fatalf("Read = (%v,%v), want (true,true)", v, ok)
	}
	b.Write(1, 4, false)
	v, ok = b.Read(1, 4)
	if !ok || v {
		t.Fatalf("Read = (%v,%v), want (false,true)", v, ok)
	}
}

func TestFirstWriteWins(t *testing.T) {
	b := New(1, 1)
	b.Write(0, 0, true)
	b.Write(0, 0, false) // attempt to flip-flop
	v, ok := b.Read(0, 0)
	if !ok || !v {
		t.Fatal("second write overrode the first")
	}
}

func TestLaneIsolation(t *testing.T) {
	// Player 1's writes must never affect player 0's lane.
	b := New(2, 4)
	b.Write(0, 2, true)
	b.Write(1, 2, false)
	v, ok := b.Read(0, 2)
	if !ok || !v {
		t.Fatal("player 1 corrupted player 0's lane")
	}
}

func TestVotes(t *testing.T) {
	b := New(5, 1)
	b.Write(0, 0, true)
	b.Write(1, 0, true)
	b.Write(2, 0, false)
	// players 3,4 abstain
	ones, zeros := b.Votes(0, []int{0, 1, 2, 3, 4})
	if ones != 2 || zeros != 1 {
		t.Fatalf("Votes = (%d,%d), want (2,1)", ones, zeros)
	}
	ones, zeros = b.Votes(0, []int{3, 4})
	if ones != 0 || zeros != 0 {
		t.Fatalf("abstainers counted: (%d,%d)", ones, zeros)
	}
}

func TestCounters(t *testing.T) {
	b := New(2, 2)
	b.Write(0, 0, true)
	b.Write(0, 1, true)
	b.Read(0, 0)
	if b.WriteCount() != 2 {
		t.Fatalf("WriteCount = %d, want 2", b.WriteCount())
	}
	if b.ReadCount() != 1 {
		t.Fatalf("ReadCount = %d, want 1", b.ReadCount())
	}
	b.Reset()
	if b.WriteCount() != 0 || b.ReadCount() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if _, ok := b.Read(0, 0); ok {
		t.Fatal("Reset did not clear data")
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
				b.Write(p, o, (p+o)%2 == 0)
			}
		}(p)
	}
	wg.Wait()
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			v, ok := b.Read(p, o)
			if !ok || v != ((p+o)%2 == 0) {
				t.Fatalf("cell (%d,%d) = (%v,%v)", p, o, v, ok)
			}
		}
	}
	if b.WriteCount() != n*m {
		t.Fatalf("WriteCount = %d, want %d", b.WriteCount(), n*m)
	}
}

func TestFrozenReadsMatchBoard(t *testing.T) {
	b := New(4, 16)
	b.Write(0, 3, true)
	b.Write(1, 3, false)
	b.Write(2, 7, true)
	f := b.Freeze()
	for p := 0; p < 4; p++ {
		for o := 0; o < 16; o++ {
			wantV, wantOK := b.Read(p, o)
			gotV, gotOK := f.Read(p, o)
			if wantV != gotV || wantOK != gotOK {
				t.Fatalf("cell (%d,%d): frozen (%v,%v) vs board (%v,%v)", p, o, gotV, gotOK, wantV, wantOK)
			}
		}
	}
	ones, zeros := f.Votes(3, []int{0, 1, 2, 3})
	if ones != 1 || zeros != 1 {
		t.Fatalf("frozen Votes = (%d,%d), want (1,1)", ones, zeros)
	}
}

func TestFrozenReadsAreCounted(t *testing.T) {
	b := New(2, 2)
	b.Write(0, 0, true)
	before := b.ReadCount()
	f := b.Freeze()
	f.Read(0, 0)
	f.Votes(0, []int{0, 1})
	if got := b.ReadCount() - before; got != 3 {
		t.Fatalf("frozen reads counted %d, want 3", got)
	}
}

func TestWriteAfterFreezePanics(t *testing.T) {
	b := New(1, 1)
	b.Write(0, 0, true)
	b.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Write after Freeze did not panic")
		}
	}()
	b.Write(0, 0, false)
}

func TestResetUnseals(t *testing.T) {
	b := New(1, 2)
	b.Write(0, 0, true)
	b.Freeze()
	b.Reset()
	b.Write(0, 1, true) // must not panic
	if v, ok := b.Read(0, 1); !ok || !v {
		t.Fatal("write after Reset lost")
	}
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
				b.Write(p, o, (p*o)%3 == 0)
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
				if v, ok := f.Read(o%n, o); !ok || v != ((o%n)*o%3 == 0) {
					t.Errorf("frozen cell (%d,%d) wrong: (%v,%v)", o%n, o, v, ok)
				}
				ones, zeros := f.Votes(o, players)
				if ones+zeros != n {
					t.Errorf("object %d: %d votes, want %d", o, ones+zeros, n)
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
// against both earlier word writes and earlier bit writes, mask the tail,
// and count one write per cell published.
func TestWriteWordSemantics(t *testing.T) {
	b := New(2, 70) // two words, 6-bit tail
	b.Write(0, 1, true)
	b.WriteWord(0, 0, 0b0110, 0b0000) // cell 1 already written true: must stick
	if v, ok := b.Read(0, 1); !ok || !v {
		t.Fatalf("cell (0,1) = (%v,%v), want first write (true,true)", v, ok)
	}
	if v, ok := b.Read(0, 2); !ok || v {
		t.Fatalf("cell (0,2) = (%v,%v), want (false,true)", v, ok)
	}
	// Values outside written must be ignored.
	b.WriteWord(0, 0, 0b1000, ^uint64(0))
	if v, ok := b.Read(0, 3); !ok || !v {
		t.Fatalf("cell (0,3) = (%v,%v), want (true,true)", v, ok)
	}
	if _, ok := b.Read(0, 4); ok {
		t.Fatal("cell (0,4) written despite written mask bit clear")
	}
	// Tail word: bits past Objects() are masked off.
	b.WriteWord(1, 1, ^uint64(0), ^uint64(0))
	for o := 64; o < 70; o++ {
		if v, ok := b.Read(1, o); !ok || !v {
			t.Fatalf("tail cell (1,%d) = (%v,%v)", o, v, ok)
		}
	}
	// writes: 1 (bit) + 2 (word cells) + 1 (word cell) + 6 (valid tail cells)
	if got := b.WriteCount(); got != 10 {
		t.Fatalf("WriteCount = %d, want 10", got)
	}
}

// TestWriteVector covers the whole-lane vector write.
func TestWriteVector(t *testing.T) {
	b := New(2, 130)
	written := make([]bool, 130)
	values := make([]bool, 130)
	for o := 0; o < 130; o += 3 {
		written[o] = true
		values[o] = o%2 == 0
	}
	b.WriteVector(1, bitvec.FromBools(written), bitvec.FromBools(values))
	for o := 0; o < 130; o++ {
		v, ok := b.Read(1, o)
		if ok != written[o] {
			t.Fatalf("cell (1,%d): ok = %v, want %v", o, ok, written[o])
		}
		if ok && v != values[o] {
			t.Fatalf("cell (1,%d): value = %v, want %v", o, v, values[o])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatched WriteVector did not panic")
		}
	}()
	b.WriteVector(0, bitvec.FromBools(written[:10]), bitvec.FromBools(values[:10]))
}

// TestWriteWordAfterFreezePanics mirrors the Write ordering contract.
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
// per-object reference on randomized boards: MajorityWord bits and
// MajorityInto vectors must agree with Votes.
func TestWordTallyMatchesVotes(t *testing.T) {
	const n, m = 37, 200
	s := uint64(42)
	next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
	b := New(n, m)
	for p := 0; p < n; p++ {
		for o := 0; o < m; o++ {
			switch next() % 3 {
			case 0:
				b.Write(p, o, next()&1 == 1)
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
	maj := bitvec.New(m)
	f.MajorityInto(maj, players)
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
			wantOnes, wantZeros := f.Votes(o, players)
			wantMaj := wantOnes > wantZeros
			if gotMaj := mw&(1<<uint(bpos)) != 0; gotMaj != wantMaj {
				t.Fatalf("object %d: MajorityWord bit = %v, Votes majority = %v", o, gotMaj, wantMaj)
			}
			if maj.Get(o) != wantMaj {
				t.Fatalf("object %d: MajorityInto bit = %v, want %v", o, maj.Get(o), wantMaj)
			}
		}
	}
}

// TestMajorityWordAllocFree: the frozen word tally must not allocate
// (satellite regression guard).
func TestMajorityWordAllocFree(t *testing.T) {
	const n, m = 64, 1024
	b := New(n, m)
	for p := 0; p < n; p++ {
		for wi := 0; wi < (m+63)/64; wi++ {
			b.WriteWord(p, wi, ^uint64(0), uint64(p)*0x9E3779B97F4A7C15)
		}
	}
	f := b.Freeze()
	players := make([]int, n)
	for i := range players {
		players[i] = i
	}
	maj := bitvec.New(m)
	var sink uint64
	if a := testing.AllocsPerRun(100, func() {
		sink += f.MajorityWord(3, players)
		f.MajorityInto(maj, players)
	}); a != 0 {
		t.Fatalf("word tally allocates %v times per run", a)
	}
	_ = sink
}

// TestResetReusesStorage: Reset clears lanes in place — no allocations —
// so boards can be pooled across protocol runs (core.Mem), and a reset
// board behaves exactly like a new one.
func TestResetReusesStorage(t *testing.T) {
	b := New(4, 130)
	b.Write(1, 5, true)
	b.WriteWord(2, 1, 0xF0, 0x50)
	f := b.Freeze()
	if _, ok := f.Read(1, 5); !ok {
		t.Fatal("write lost before reset")
	}

	allocs := testing.AllocsPerRun(10, func() { b.Reset() })
	if allocs != 0 {
		t.Fatalf("Reset allocates %v times; board pooling depends on 0", allocs)
	}

	if b.WriteCount() != 0 || b.ReadCount() != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if _, ok := b.Read(1, 5); ok {
		t.Fatal("Reset did not clear lanes")
	}
	// Unsealed again: writes work and tally like a fresh board.
	b.Write(0, 7, true)
	fz := b.Freeze()
	ones, zeros := fz.Votes(7, []int{0, 1, 2, 3})
	if ones != 1 || zeros != 0 {
		t.Fatalf("votes after reset = %d/%d", ones, zeros)
	}
}
