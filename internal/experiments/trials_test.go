package experiments

import (
	"testing"

	"collabscore/internal/metrics"
	"collabscore/internal/xrand"
)

// TestTrialMeansInTrialOrder: each measurement is the mean of its values
// taken in trial order, so the float sum matches metrics.Mean exactly.
func TestTrialMeansInTrialOrder(t *testing.T) {
	const k = 10
	var seen []float64
	got := trialMeans(k, 42, func(trial int, rng *xrand.Stream) map[string]float64 {
		v := rng.Float64()
		seen = append(seen, v)
		return map[string]float64{"x": float64(trial), "v": v, "const": 7}
	})
	if got["x"] != 4.5 || got["const"] != 7 {
		t.Fatalf("means = %v, want x=4.5 const=7", got)
	}
	if want := metrics.Mean(seen); got["v"] != want {
		t.Fatalf("mean v = %v, want %v over trial order", got["v"], want)
	}
}

// TestTrialMeansSplitsPerTrial: trial i runs once, in order, on
// xrand.New(seed).Split(i).
func TestTrialMeansSplitsPerTrial(t *testing.T) {
	const k, seed = 25, 1
	var trials []int
	trialMeans(k, seed, func(trial int, rng *xrand.Stream) map[string]float64 {
		if want := xrand.New(seed).Split(uint64(trial)).Uint64(); rng.Uint64() != want {
			t.Fatalf("trial %d did not get stream Split(%d)", trial, trial)
		}
		trials = append(trials, trial)
		return nil
	})
	if len(trials) != k {
		t.Fatalf("ran %d trials, want %d", len(trials), k)
	}
	for i, trial := range trials {
		if trial != i {
			t.Fatalf("trial %d ran at position %d", trial, i)
		}
	}
}

// TestTrialMeansDeterministic: the same seed gives the same means.
func TestTrialMeansDeterministic(t *testing.T) {
	fn := func(trial int, rng *xrand.Stream) map[string]float64 {
		return map[string]float64{"v": rng.Float64(), "w": float64(rng.Intn(1000))}
	}
	a, b := trialMeans(12, 5, fn), trialMeans(12, 5, fn)
	if a["v"] != b["v"] || a["w"] != b["w"] {
		t.Fatalf("same seed gave %v then %v", a, b)
	}
}

// TestTrialMeansDistinctStreams: different trials draw from different
// streams.
func TestTrialMeansDistinctStreams(t *testing.T) {
	draws := map[uint64]int{}
	trialMeans(8, 99, func(trial int, rng *xrand.Stream) map[string]float64 {
		v := rng.Uint64()
		if prev, ok := draws[v]; ok {
			t.Fatalf("trials %d and %d drew the same value", prev, trial)
		}
		draws[v] = trial
		return nil
	})
}
