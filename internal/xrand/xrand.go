// Package xrand provides the deterministic, splittable randomness substrate
// used by every protocol in the repository.
//
// The paper's protocols consume two kinds of randomness:
//
//   - private coins, used by an individual player (e.g. which objects RSelect
//     probes), and
//   - shared coins, agreed upon by all honest players (e.g. the sample set S
//     in CalculatePreferences step 1.b, or the per-object prober assignment
//     in step 1.e). In the Byzantine setting shared coins come from a leader
//     elected with Feige's protocol (§7.1) and are only trustworthy when the
//     leader is honest.
//
// Both are modeled as Streams split deterministically from a root seed, so
// any simulation is exactly reproducible from a single uint64.
package xrand

import (
	"math"
	"math/bits"
	"sort"
)

// splitmix64 advances the state and returns the next output. It is the
// standard SplitMix64 generator, used both directly and to seed splits.
func splitmix64(state *uint64) uint64 {
	*state += golden
	return finalize(*state)
}

// Stream is a deterministic pseudo-random stream. It is NOT safe for
// concurrent use; split independent streams for concurrent consumers.
type Stream struct {
	state uint64
}

// New returns a Stream seeded from the given seed.
func New(seed uint64) *Stream {
	s := &Stream{state: seed}
	// Warm up so that small, similar seeds diverge immediately.
	splitmix64(&s.state)
	return s
}

// Split derives an independent child stream labeled by the given tags.
// Splitting with the same tags always yields the same child, so subsystems
// can re-derive their streams without coordination.
func (s *Stream) Split(tags ...uint64) *Stream {
	c := s.SplitValue(tags...)
	return &c
}

// SplitValue is Split returning the child by value instead of by pointer.
// Splitting is a pure read of the parent's state, so concurrent SplitValue
// calls on one parent are safe; the returned Stream lives wherever the
// caller puts it, which in the protocol hot loops is the stack — the
// per-(cluster, object) prober-choice streams of the workshare must not
// become per-cell heap objects. The child is identical to Split's for the
// same tags.
func (s *Stream) SplitValue(tags ...uint64) Stream {
	st := s.state
	for _, t := range tags {
		st = mix(st, t)
	}
	c := Stream{state: mix(st, 0x5deece66d)}
	// Warm up exactly as New does, so Split and SplitValue agree.
	splitmix64(&c.state)
	return c
}

func mix(a, b uint64) uint64 {
	x := a ^ (b + 0x9e3779b97f4a7c15 + (a << 6) + (a >> 2))
	return splitmix64(&x)
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Stream) Uint64() uint64 { return splitmix64(&s.state) }

// golden is the SplitMix64 state increment (the odd fractional part of the
// golden ratio, 2⁶⁴/φ). Each Uint64 call advances the state by exactly this
// constant before hashing it, which makes the stream counter-based: the
// value of draw i is a pure function of state + (i+1)·golden. At and Skip
// exploit this for O(1) random access into a stream's future draws — the
// substrate the lazy truth sources are built on (DESIGN.md §14).
const golden = 0x9e3779b97f4a7c15

// finalize is the SplitMix64 output hash applied to an already-advanced
// state. splitmix64 = advance by golden, then finalize.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// At returns the value the (i+1)-th future Uint64 call would produce —
// At(0) is the next draw, At(1) the one after — without advancing the
// stream. It is O(1) for any i: SplitMix64 is counter-based, so random
// access costs the same as sequential access. Property-pinned against
// sequential Uint64 draws by the package tests.
func (s *Stream) At(i uint64) uint64 {
	return finalize(s.state + (i+1)*golden)
}

// Skip advances the stream past k draws in O(1): after Skip(k) the next
// Uint64 equals what At(k) returned before the call. Skip(a) followed by
// Skip(b) is Skip(a+b); Skip(0) is a no-op.
func (s *Stream) Skip(k uint64) {
	s.state += k * golden
}

// Clone returns an independent copy of the stream at its current position:
// the clone and the original produce the same future draws but advance
// separately.
func (s *Stream) Clone() *Stream {
	c := *s
	return &c
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	for {
		if v, ok := lemire(s.Uint64(), uint64(n)); ok {
			return int(v)
		}
	}
}

// lemire is one step of Lemire's multiply-shift rejection method for
// unbiased bounded ints: it maps the 64-bit draw x to v in [0, bound) and
// reports whether x is accepted. A rejected draw (one of the 2⁶⁴ mod bound
// lowest products) is discarded and the caller draws again. The modulo is
// computed only for the rare products whose low half falls below bound.
func lemire(x, bound uint64) (v uint64, ok bool) {
	hi, lo := bits.Mul64(x, bound)
	return hi, lo >= bound || lo >= (-bound)%bound
}

// Float64 returns a uniform float in [0,1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (s *Stream) Bool() bool { return s.Uint64()&1 == 1 }

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a uniformly random permutation of [0,n).
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Sample returns k distinct uniform elements of [0,n), sorted ascending.
// If k >= n it returns all of [0,n).
func (s *Stream) Sample(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if k <= 0 {
		return nil
	}
	// Floyd's algorithm: k iterations, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

// SampleBits draws the same k distinct elements of [0,n) as Sample, with
// the same coins draw for draw, as a bitmap: it clears the first ⌈n/64⌉
// words of dst and sets bit t%64 of word t/64 for each drawn t. If k >= n
// it sets all of [0,n) and draws nothing. Membership is one bit test and
// ascending order is bit order, so there is no set to keep or list to
// sort. (Floyd's invariant makes the fallback value j always fresh:
// earlier draws were bounded by earlier, smaller j.)
//
// The loop keeps the stream state in a local variable and takes Floyd's
// fallback without a branch (t += (j−t) & −hit, with hit the bit already
// set at t), so the only branch left per draw is Lemire's rarely taken
// rejection.
func (s *Stream) SampleBits(n, k int, dst []uint64) {
	dst = dst[:(n+63)/64]
	clear(dst)
	if k >= n {
		for t := 0; t < n; t += 64 {
			dst[t/64] = ^uint64(0) >> uint(max(0, t+64-n))
		}
		return
	}
	st := s.state
	for j := uint64(n - max(k, 0)); j < uint64(n); j++ {
		var t uint64
		for ok := false; !ok; {
			st += golden
			t, ok = lemire(finalize(st), j+1)
		}
		hit := dst[t>>6] >> (t & 63) & 1
		t += (j - t) & -hit
		dst[t>>6] |= 1 << (t & 63)
	}
	s.state = st
}

// SampleFrom returns k distinct uniform elements of the given slice,
// in arbitrary order. If k >= len(set) it returns a copy of set.
func (s *Stream) SampleFrom(set []int, k int) []int {
	if k >= len(set) {
		out := make([]int, len(set))
		copy(out, set)
		return out
	}
	idx := s.Sample(len(set), k)
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = set[j]
	}
	return out
}

// BernoulliSubset returns the sorted subset of [0,n) where each element is
// included independently with probability p. This is how the sample set S
// of CalculatePreferences step 1.b is drawn.
func (s *Stream) BernoulliSubset(n int, p float64) []int {
	if p <= 0 {
		return nil
	}
	if p >= 1 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	// Geometric skipping: expected O(pn) work.
	var out []int
	i := 0
	lq := math.Log1p(-p)
	for {
		u := s.Float64()
		skip := int(math.Floor(math.Log1p(-u) / lq))
		i += skip
		if i >= n {
			return out
		}
		out = append(out, i)
		i++
	}
}

// Zipf returns a value in [0,n) drawn from a (shifted) Zipf distribution
// with exponent alpha > 0: P(i) ∝ 1/(i+1)^alpha. It uses inversion against
// a precomputed CDF for small n; callers needing many draws should use
// NewZipf.
type Zipf struct {
	cdf []float64
	s   *Stream
}

// NewZipf builds a Zipf sampler over [0,n) with exponent alpha.
func NewZipf(s *Stream, n int, alpha float64) *Zipf {
	cdf := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), alpha)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf, s: s}
}

// Draw returns the next Zipf-distributed value.
func (z *Zipf) Draw() int {
	u := z.s.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
