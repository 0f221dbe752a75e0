package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
)

// Record is one completed grid point: the point's coordinates plus the
// deterministic measurements of its report. Records are streamed to the
// sink as one JSON object per line (JSONL); every field is a pure function
// of the point's seed and coordinates, so a record is byte-comparable
// across runs, worker counts, and resumes.
type Record struct {
	Point
	// Key is the point's canonical identity (Point.Key) — the resume key.
	Key string `json:"key"`

	MaxError   int     `json:"max_error"`
	MeanError  float64 `json:"mean_error"`
	MaxProbes  int64   `json:"max_probes"`
	MeanProbes float64 `json:"mean_probes"`
	// TotalProbes sums probes over all players, honest and dishonest.
	TotalProbes int64 `json:"total_probes"`
	// OptError is the exact planted optimum (max over players of the
	// distance to their cluster's best representable vector), or -1 when
	// not computed (Options.ComputeOpt) or no structure was planted.
	OptError int `json:"opt_error"`
	// HonestLeaders/Repetitions report the Byzantine wrapper's elections
	// (both 0 for non-Byzantine protocols).
	HonestLeaders int `json:"honest_leaders"`
	Repetitions   int `json:"repetitions"`
	// CommWrites/CommReads are the bulletin-board traffic totals.
	CommWrites int64 `json:"comm_writes"`
	CommReads  int64 `json:"comm_reads"`
	// Rounds is the point's synchronous-round complexity under the
	// paper's §2 round model: each player performs exactly one probe per
	// round, so the rounds a protocol needs equal the worst
	// per-player probe count (Report.MaxProbes).
	Rounds int64 `json:"rounds"`
}

// WriteRecord appends one JSONL line to w. The line is marshaled first and
// written with a single Write call, so concurrent writers serialized by the
// engine's mutex produce whole lines — a crash can truncate only the tail,
// which ReadRecords tolerates.
func WriteRecord(w io.Writer, rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadRecords parses a JSONL results file, tolerating a truncated tail (the
// kill-mid-sweep case): it returns the records of every intact line and the
// byte offset just past the last intact line. A line is intact when it is
// newline-terminated and unmarshals to a record with a non-empty key;
// parsing stops at the first line that is not, and the remainder of the
// stream is reported in truncated bytes via the offset (callers resume by
// truncating the file there and appending).
func ReadRecords(r io.Reader) (recs []Record, intact int64, err error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return recs, intact, rerr
		}
		complete := len(line) > 0 && line[len(line)-1] == '\n'
		if complete {
			var rec Record
			if json.Unmarshal(line, &rec) == nil && rec.Key != "" {
				recs = append(recs, rec)
				intact += int64(len(line))
				if rerr == io.EOF {
					return recs, intact, nil
				}
				continue
			}
		}
		// Truncated or corrupt line: stop here; everything before is good.
		return recs, intact, nil
	}
}

// completedKeys returns the set of point keys present in recs.
func completedKeys(recs []Record) map[string]struct{} {
	out := make(map[string]struct{}, len(recs))
	for _, rec := range recs {
		out[rec.Key] = struct{}{}
	}
	return out
}

// wantsOpt reports whether a run with the given ComputeOpt setting records
// a planted optimum for pt: uniform plantings and rating points have no
// optimum to compute (OptError -1 either way), and neither do lazy truth
// sources (the oracle scans the materialized matrix); planted dense binary
// points carry one iff ComputeOpt is on. This single predicate is the
// opt-consistency rule resume applies — a record's opt_error presence must
// match what the current run would produce.
func wantsOpt(pt Point, computeOpt bool) bool {
	return computeOpt && pt.Plant.Kind != "uniform" && pt.Protocol != "ratings" && pt.TruthSource == ""
}

// openResume opens the results file at path for appending a run over
// points, and returns it with the prior records that count as completing
// grid points (priorRecords). Without resume the file is truncated and
// there are none. When stale records were dropped, the file is rewritten
// with the valid ones. The caller owns closing the file.
func openResume(points []Point, path string, resume, computeOpt bool) (*os.File, []Record, error) {
	var valid []Record
	rewrite := !resume
	if resume {
		var err error
		if valid, rewrite, err = priorRecords(points, path, computeOpt); err != nil {
			return nil, nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if rewrite {
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if rewrite {
		for _, rec := range valid {
			if err := WriteRecord(f, rec); err != nil {
				f.Close()
				return nil, nil, err
			}
		}
	}
	return f, valid, nil
}

// priorRecords reads the results file at path and returns the records that
// count as completing points under this run's options: key AND seed equal
// the expanded point's (a record from a different root seed is another
// sweep's number), and opt_error presence matches computeOpt (resuming a
// no-opt file with -opt, or vice versa, must recompute rather than mix).
// stale reports that some record was rejected, so the file must be rebuilt
// from the valid ones; otherwise a torn final line from a mid-write kill is
// truncated away here. A record whose key is no point of this run (another
// shard's, or another grid's) is an error, not a stale record: rebuilding
// would delete results this run cannot recompute, so the file is left as
// it is. A missing file has no prior records.
func priorRecords(points []Point, path string, computeOpt bool) (valid []Record, stale bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	prev, intact, err := ReadRecords(f)
	size, _ := f.Seek(0, 2)
	f.Close()
	if err != nil {
		return nil, false, fmt.Errorf("sweep: reading %s: %w", path, err)
	}

	type want struct {
		seed    uint64
		withOpt bool
	}
	wants := make(map[string]want, len(points))
	for _, pt := range points {
		wants[pt.Key()] = want{seed: pt.Seed, withOpt: wantsOpt(pt, computeOpt)}
	}
	foreign := 0
	for _, rec := range prev {
		w, ok := wants[rec.Key]
		if !ok {
			foreign++
		} else if w.seed == rec.Seed && w.withOpt == (rec.OptError >= 0) {
			valid = append(valid, rec)
		}
	}
	if foreign > 0 {
		return nil, false, fmt.Errorf("sweep: %s holds %d records for points outside this run (another shard or grid); resume with the grid and -shard that wrote it, or combine shard files with -merge", path, foreign)
	}
	if len(valid) != len(prev) {
		return valid, true, nil
	}
	if intact < size {
		if err := os.Truncate(path, intact); err != nil {
			return nil, false, fmt.Errorf("sweep: truncating %s to last intact record: %w", path, err)
		}
	}
	return valid, false, nil
}

// RunFile executes the grid with results streamed to the JSONL file at
// path. With resume set, points already recorded intact in the file are
// skipped and exactly the missing ones run, under priorRecords' stale-seed
// and opt-change rejection rules; without it the file is truncated and the
// whole grid runs. RunFile returns one record per grid point in point order
// — previously recorded points contribute their stored records, so the
// result is record-equal to an uninterrupted sweep with the same options.
// Two documented exceptions return fewer records without error: points a
// closed Options.Stop kept from running (the file stays resumable), and
// points reported through Options.OnFailure (persistent panics).
func RunFile(points []Point, path string, resume bool, opt Options) ([]Record, error) {
	f, prior, err := openResume(points, path, resume, opt.ComputeOpt)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	failed := make(map[string]struct{})
	userFail := opt.OnFailure
	opt.OnFailure = func(pt Point, err error) {
		failed[pt.Key()] = struct{}{}
		if userFail != nil {
			userFail(pt, err)
		}
	}
	opt.Sink = f
	opt.Done = completedKeys(prior)
	fresh, err := Run(points, opt)
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	byKey := make(map[string]Record, len(prior)+len(fresh))
	for _, rec := range prior {
		byKey[rec.Key] = rec
	}
	for _, rec := range fresh {
		byKey[rec.Key] = rec
	}
	stopped := stopRequested(opt.Stop)
	out := make([]Record, 0, len(points))
	for _, pt := range points {
		rec, ok := byKey[pt.Key()]
		if !ok {
			if _, f := failed[pt.Key()]; f || stopped {
				continue
			}
			return nil, fmt.Errorf("sweep: point %s has no record after run", pt.Key())
		}
		rec.Index = pt.Index
		out = append(out, rec)
	}
	return out, nil
}

// MergeFiles reads several JSONL results files — the outputs of -shard
// runs — and merges their records into one key-deduplicated list in
// first-seen order. Duplicate keys are legal only when the records are
// identical (the same deterministic point run twice, as when a shard is
// re-run into a second file); conflicting records for the same key mean the files came from
// different sweeps and merging them would corrupt both, so that is an
// error, as is an unreadable file. Torn tails are tolerated per file (the
// torn point is simply absent, exactly as in a single-file resume).
func MergeFiles(paths ...string) ([]Record, error) {
	byKey := make(map[string]Record)
	var out []Record
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		recs, _, err := ReadRecords(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("sweep: reading %s: %w", path, err)
		}
		for _, rec := range recs {
			prev, dup := byKey[rec.Key]
			if !dup {
				byKey[rec.Key] = rec
				out = append(out, rec)
				continue
			}
			if !reflect.DeepEqual(prev, rec) {
				return nil, fmt.Errorf("sweep: conflicting records for point %s (merged files are from different sweeps?)", rec.Key)
			}
		}
	}
	return out, nil
}
