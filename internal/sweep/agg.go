package sweep

import (
	"collabscore/internal/metrics"
)

// Summary aggregates a set of point records through internal/metrics: the
// distribution of per-point accuracy (max and mean honest error), probe
// totals, and the honest-leader rate of the Byzantine points.
type Summary struct {
	// Points is the number of records aggregated.
	Points int `json:"points"`
	// MaxError summarizes the per-point worst honest error: its Max is the
	// worst error anywhere in the grid, Mean/Median/P95 the distribution
	// over points.
	MaxError metrics.ErrorStats `json:"max_error"`
	// MeanError is the grand mean of the per-point mean honest errors.
	MeanError float64 `json:"mean_error"`
	// MaxProbes is the worst per-player probe count anywhere in the grid;
	// MeanMaxProbes its mean over points.
	MaxProbes     int64   `json:"max_probes"`
	MeanMaxProbes float64 `json:"mean_max_probes"`
	// TotalProbes sums every player's probes over all points — the grid's
	// total probing work.
	TotalProbes int64 `json:"total_probes"`
	// HonestLeaderRate is elected-honest-leaders over total repetitions,
	// across the points that ran the Byzantine wrapper (0 when none did).
	HonestLeaderRate float64 `json:"honest_leader_rate"`
	// CommWrites/CommReads sum bulletin-board traffic over all points.
	CommWrites int64 `json:"comm_writes"`
	CommReads  int64 `json:"comm_reads"`
	// Failures counts points that failed (their runner panicked) and so
	// have no record; FailedPoints lists their keys. Aggregate only sees
	// records, so the caller fills these from its Options.OnFailure tally
	// (cmd/sweep does).
	Failures     int      `json:"failures,omitempty"`
	FailedPoints []string `json:"failed_points,omitempty"`
}

// Aggregate summarizes the given records.
func Aggregate(recs []Record) Summary {
	s := Summary{Points: len(recs)}
	if len(recs) == 0 {
		return s
	}
	maxErrs := make([]int, len(recs))
	var meanErrSum, meanProbesSum float64
	var leaders, reps int64
	for i, rec := range recs {
		maxErrs[i] = rec.MaxError
		meanErrSum += rec.MeanError
		meanProbesSum += float64(rec.MaxProbes)
		if rec.MaxProbes > s.MaxProbes {
			s.MaxProbes = rec.MaxProbes
		}
		s.TotalProbes += rec.TotalProbes
		s.CommWrites += rec.CommWrites
		s.CommReads += rec.CommReads
		leaders += int64(rec.HonestLeaders)
		reps += int64(rec.Repetitions)
	}
	s.MaxError = metrics.Summarize(maxErrs)
	s.MeanError = meanErrSum / float64(len(recs))
	s.MeanMaxProbes = meanProbesSum / float64(len(recs))
	if reps > 0 {
		s.HonestLeaderRate = float64(leaders) / float64(reps)
	}
	return s
}

// MeanOf returns the mean of fn over the records (0 for none) — the helper
// trial-averaged table columns are built from.
func MeanOf(recs []Record, fn func(Record) float64) float64 {
	if len(recs) == 0 {
		return 0
	}
	t := 0.0
	for _, rec := range recs {
		t += fn(rec)
	}
	return t / float64(len(recs))
}
