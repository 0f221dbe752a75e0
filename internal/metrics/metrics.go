// Package metrics computes the quantities the paper's claims are stated
// in: per-player Hamming error of the predicted vectors (max over honest
// players = the "rate of error", §3), probe complexity (max probes per
// honest player), and approximation ratios against the Definition-1
// reference.
package metrics

import (
	"math"
	"sort"

	"collabscore/internal/bitvec"
	"collabscore/internal/world"
)

// ErrorStats summarizes prediction error over honest players.
type ErrorStats struct {
	Max    int     `json:"max"` // the paper's rate of error
	Mean   float64 `json:"mean"`
	Median int     `json:"median"`
	P95    int     `json:"p95"`
	N      int     `json:"n"` // number of honest players measured
}

// Errors returns the per-honest-player Hamming errors |w(p) − v(p)|,
// indexed in honest-player order.
func Errors(w *world.World, outputs []bitvec.Vector) []int {
	var errs []int
	for p := 0; p < w.N(); p++ {
		if !w.IsHonest(p) {
			continue
		}
		errs = append(errs, w.HonestError(p, outputs[p]))
	}
	return errs
}

// Error computes ErrorStats for the given protocol outputs.
func Error(w *world.World, outputs []bitvec.Vector) ErrorStats {
	return Summarize(Errors(w, outputs))
}

// Summarize computes ErrorStats over an arbitrary error slice.
func Summarize(errs []int) ErrorStats {
	if len(errs) == 0 {
		return ErrorStats{}
	}
	s := ErrorStats{N: len(errs)}
	sorted := append([]int(nil), errs...)
	sort.Ints(sorted)
	total := 0
	for _, e := range sorted {
		total += e
	}
	s.Max = sorted[len(sorted)-1]
	s.Mean = float64(total) / float64(len(sorted))
	s.Median = sorted[len(sorted)/2]
	p95 := int(math.Ceil(0.95*float64(len(sorted)))) - 1
	if p95 < 0 {
		p95 = 0
	}
	s.P95 = sorted[p95]
	return s
}

// ProbeStats summarizes probe counts over honest players.
type ProbeStats struct {
	Max   int64 // the paper's probe complexity measure
	Mean  float64
	Total int64 // over all players, honest and dishonest
}

// Probes computes ProbeStats for the current state of the world.
func Probes(w *world.World) ProbeStats {
	var s ProbeStats
	honest := 0
	var honestTotal int64
	for p := 0; p < w.N(); p++ {
		c := w.Probes(p)
		s.Total += c
		if !w.IsHonest(p) {
			continue
		}
		honest++
		honestTotal += c
		if c > s.Max {
			s.Max = c
		}
	}
	if honest > 0 {
		s.Mean = float64(honestTotal) / float64(honest)
	}
	return s
}

// ApproxRatio returns achieved/optimal with the convention that an optimal
// of zero and achieved of zero is ratio 1, and any positive error against
// zero optimal is reported against optimal 1 (the smallest nonzero scale).
func ApproxRatio(achieved, optimal float64) float64 {
	if optimal <= 0 {
		if achieved <= 0 {
			return 1
		}
		optimal = 1
	}
	return achieved / optimal
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// MaxInt returns the maximum of xs (0 for empty input).
func MaxInt(xs []int) int {
	mx := 0
	for i, x := range xs {
		if i == 0 || x > mx {
			mx = x
		}
	}
	return mx
}
