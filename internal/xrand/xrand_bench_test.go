package xrand

import (
	"fmt"
	"math"
	"testing"
)

// BenchmarkSampleBits times one Floyd draw into a bitmap at two shapes: a
// Select duel's rank sample (16 differing positions, a budget of 10) and a
// rating spot check's object sample (2048 objects, 8·⌊ln n⌋ of them).
func BenchmarkSampleBits(b *testing.B) {
	for _, sh := range []struct{ n, k int }{
		{16, 10},
		{2048, 8 * int(math.Log(2048))},
	} {
		b.Run(fmt.Sprintf("n=%d/k=%d", sh.n, sh.k), func(b *testing.B) {
			s := New(1)
			dst := make([]uint64, (sh.n+63)/64)
			for i := 0; i < b.N; i++ {
				s.SampleBits(sh.n, sh.k, dst)
			}
		})
	}
}
