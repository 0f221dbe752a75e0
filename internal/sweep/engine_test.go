package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// testGrid is a small shape-diverse grid that still exercises planting,
// corruption, both comparison protocols, and trials.
func testGrid(t *testing.T) []Point {
	t.Helper()
	pts, err := Expand(Spec{
		Seed:         11,
		Trials:       2,
		Players:      []int{48, 64},
		ClusterSizes: []int{16},
		Diameters:    []int{4},
		Dishonest:    []int{0, 2},
		Strategies:   []string{"colluders"},
		Protocols:    []string{"run", "byzantine"},
		FixDiameter:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestEngineMatchesStandalone pins the acceptance property: every record
// the multi-worker engine produces is identical to running that point's
// scenario standalone (no engine).
func TestEngineMatchesStandalone(t *testing.T) {
	pts := testGrid(t)
	var sink bytes.Buffer
	recs, err := Run(pts, Options{Workers: 3, Sink: &sink, ComputeOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pts) {
		t.Fatalf("engine returned %d records for %d points", len(recs), len(pts))
	}
	for i, rec := range recs {
		want, err := runPoint(pts[i], true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("point %s: engine record differs from standalone\n got %+v\nwant %+v",
				pts[i].Key(), rec, want)
		}
	}
	// The sink holds one intact line per point, with records identical to
	// the returned ones.
	fromSink, intact, err := ReadRecords(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromSink) != len(pts) || intact == 0 {
		t.Fatalf("sink holds %d records for %d points", len(fromSink), len(pts))
	}
	byKey := make(map[string]Record)
	for _, rec := range fromSink {
		rec.Index = 0
		byKey[rec.Key] = rec
	}
	for _, rec := range recs {
		rec.Index = 0
		if !reflect.DeepEqual(byKey[rec.Key], rec) {
			t.Fatalf("sink record for %s differs from returned record", rec.Key)
		}
	}
}

// TestEngineWorkerCounts: the same grid under different worker counts
// yields identical record sets — scheduling is invisible in results.
func TestEngineWorkerCounts(t *testing.T) {
	pts := testGrid(t)
	ref, err := Run(pts, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 0} {
		got, err := Run(pts, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: records differ from single-worker run", workers)
		}
	}
}

// failingSink accepts n writes then fails every subsequent one.
type failingSink struct{ n int }

func (f *failingSink) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errWrite
	}
	f.n--
	return len(p), nil
}

var errWrite = os.ErrClosed

// TestRunAbortsOnSinkFailure: once the sink fails, the engine stops
// scheduling points (their records would be unrecordable) and surfaces the
// write error.
func TestRunAbortsOnSinkFailure(t *testing.T) {
	pts := testGrid(t)
	var progressed int
	_, err := Run(pts, sinkOptions(&failingSink{n: 1}, &progressed))
	if err == nil {
		t.Fatal("sink failure not surfaced")
	}
	if progressed >= len(pts) {
		t.Fatalf("engine ran all %d points despite a dead sink", len(pts))
	}
}

func sinkOptions(sink *failingSink, progressed *int) Options {
	return Options{
		Workers: 1,
		Sink:    sink,
		Progress: func(completed, scheduled int, rec Record) {
			*progressed = completed
		},
	}
}

// TestRunFileResume simulates a sweep killed mid-run — some records
// written, the last line truncated mid-write — and requires resume to
// re-run exactly the missing points and leave a file equal to an
// uninterrupted sweep's record set.
func TestRunFileResume(t *testing.T) {
	pts := testGrid(t)
	dir := t.TempDir()

	// Reference: uninterrupted sweep.
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err := RunFile(pts, refPath, false, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(pts) {
		t.Fatalf("reference run returned %d records for %d points", len(ref), len(pts))
	}

	// Interrupted file: the first k records, then a record cut mid-line.
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	k := 3
	partial := bytes.Join(lines[:k], nil)
	partial = append(partial, lines[k][:len(lines[k])/2]...) // torn write
	killedPath := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killedPath, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	var reran int
	resumed, err := RunFile(pts, killedPath, true, Options{
		Workers:  2,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pts) - k; reran != want {
		t.Fatalf("resume scheduled %d points, want exactly the %d missing", reran, want)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Fatalf("resumed records differ from uninterrupted run")
	}

	// The resumed file itself holds every point exactly once, intact.
	f, err := os.Open(killedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	final, _, err := ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, rec := range final {
		seen[rec.Key]++
	}
	for _, pt := range pts {
		if seen[pt.Key()] != 1 {
			t.Fatalf("resumed file holds %d records for %s, want 1", seen[pt.Key()], pt.Key())
		}
	}
	if len(final) != len(pts) {
		t.Fatalf("resumed file holds %d records for %d points", len(final), len(pts))
	}
}

// TestRunFileResumeRejectsStaleSeeds: a results file recorded under a
// different root seed must NOT satisfy a resume — same keys, different
// seeds means different sweeps, and silently substituting the old numbers
// would corrupt the new sweep. The stale records are dropped (the file is
// rebuilt) and the full grid runs.
func TestRunFileResumeRejectsStaleSeeds(t *testing.T) {
	spec := Spec{
		Seed: 21, Players: []int{48}, ClusterSizes: []int{16}, Diameters: []int{4},
		FixDiameter: true, Protocols: []string{"run"}, Trials: 2,
	}
	pts, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if _, err := RunFile(pts, path, false, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	reseeded := spec
	reseeded.Seed = 22
	pts2, err := Expand(reseeded)
	if err != nil {
		t.Fatal(err)
	}
	var reran int
	recs, err := RunFile(pts2, path, true, Options{
		Workers:  1,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	})
	if err != nil {
		t.Fatal(err)
	}
	if reran != len(pts2) {
		t.Fatalf("resume under a new root seed reran %d points, want all %d", reran, len(pts2))
	}
	for i, rec := range recs {
		if rec.Seed != pts2[i].Seed {
			t.Fatalf("record %d kept a stale seed", i)
		}
	}
	// The rebuilt file holds exactly the new sweep's records.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onDisk, _, err := ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(pts2) {
		t.Fatalf("rebuilt file holds %d records, want %d", len(onDisk), len(pts2))
	}
	for _, rec := range onDisk {
		if rec.Seed == pts[0].Seed && rec.Seed != pts2[0].Seed {
			t.Fatal("stale record survived the rebuild")
		}
	}
	// And a same-seed resume over the now-complete file schedules nothing.
	reran = 0
	if _, err := RunFile(pts2, path, true, Options{
		Workers:  1,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	}); err != nil {
		t.Fatal(err)
	}
	if reran != 0 {
		t.Fatalf("complete file reran %d points on resume, want 0", reran)
	}
}

// TestRunFileResumeRefusesForeignRecords: resuming one shard against a
// file that also holds other shards' records (a single-process or merged
// output) must fail and leave the file byte for byte as it was — those
// records are results this run cannot recompute, not stale ones.
func TestRunFileResumeRefusesForeignRecords(t *testing.T) {
	pts := testGrid(t)
	path := filepath.Join(t.TempDir(), "full.jsonl")
	if _, err := RunFile(pts, path, false, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := Shard(pts, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	_, err = RunFile(shard, path, true, Options{
		Workers:  1,
		Progress: func(completed, scheduled int, rec Record) { ran = true },
	})
	if err == nil {
		t.Fatal("resuming a shard over the full grid's file succeeded")
	}
	foreign := strconv.Itoa(len(pts) - len(shard))
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), " "+foreign+" ") {
		t.Fatalf("error %q does not name the file and its %s foreign records", err, foreign)
	}
	if ran {
		t.Fatal("a refused resume ran points")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a refused resume changed the file")
	}
}

// TestRunFileResumeRecomputesForOptChange: records written without
// ComputeOpt do not satisfy a resume that wants optima (and vice versa) —
// the resumed file must be record-equal to an uninterrupted sweep with the
// same options, never a mixture.
func TestRunFileResumeRecomputesForOptChange(t *testing.T) {
	pts, err := Expand(Spec{
		Seed: 31, Players: []int{48}, ClusterSizes: []int{16}, Diameters: []int{4},
		FixDiameter: true, Protocols: []string{"run"}, Trials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if _, err := RunFile(pts, path, false, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var reran int
	recs, err := RunFile(pts, path, true, Options{
		Workers: 1, ComputeOpt: true,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	})
	if err != nil {
		t.Fatal(err)
	}
	if reran != len(pts) {
		t.Fatalf("opt-changing resume reran %d points, want all %d", reran, len(pts))
	}
	for _, rec := range recs {
		if rec.OptError < 0 {
			t.Fatalf("point %s kept a no-opt record through an -opt resume", rec.Key)
		}
	}
	// Resuming again with the same options schedules nothing.
	reran = 0
	if _, err := RunFile(pts, path, true, Options{
		Workers: 1, ComputeOpt: true,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	}); err != nil {
		t.Fatal(err)
	}
	if reran != 0 {
		t.Fatalf("matched-options resume reran %d points, want 0", reran)
	}
}

// TestRunFileFresh: without resume an existing file is truncated, not
// appended to.
func TestRunFileFresh(t *testing.T) {
	pts := testGrid(t)[:2]
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, []byte("garbage that must disappear\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := RunFile(pts, path, false, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	onDisk, _, err := ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) != len(recs) {
		t.Fatalf("file holds %d records, want %d", len(onDisk), len(recs))
	}
}

func TestAggregate(t *testing.T) {
	recs := []Record{
		{MaxError: 4, MeanError: 2, MaxProbes: 100, TotalProbes: 1000, HonestLeaders: 4, Repetitions: 5, CommWrites: 10, CommReads: 20},
		{MaxError: 8, MeanError: 4, MaxProbes: 50, TotalProbes: 500, HonestLeaders: 3, Repetitions: 5, CommWrites: 1, CommReads: 2},
	}
	s := Aggregate(recs)
	if s.Points != 2 || s.MaxError.Max != 8 || s.MaxError.Mean != 6 {
		t.Fatalf("bad error aggregation: %+v", s)
	}
	if s.MaxProbes != 100 || s.TotalProbes != 1500 || s.MeanMaxProbes != 75 {
		t.Fatalf("bad probe aggregation: %+v", s)
	}
	if s.HonestLeaderRate != 0.7 {
		t.Fatalf("honest leader rate %v, want 0.7", s.HonestLeaderRate)
	}
	if s.CommWrites != 11 || s.CommReads != 22 {
		t.Fatalf("bad comm aggregation: %+v", s)
	}
	if empty := Aggregate(nil); empty.Points != 0 {
		t.Fatalf("bad empty aggregation: %+v", empty)
	}
	maxErr := func(r Record) float64 { return float64(r.MaxError) }
	if got := MeanOf(recs, maxErr); got != 6 {
		t.Fatalf("MeanOf max error = %v, want 6", got)
	}
	if got := MeanOf(nil, maxErr); got != 0 {
		t.Fatalf("MeanOf of no records = %v, want 0", got)
	}
}

// TestRunFileResumeRatingsGrid is the §8 acceptance path: a grid over a
// rating-scale axis (plus a budgets column) runs through the engine, is
// killed mid-file (torn tail), and resumes with exactly the missing points
// recomputed — record-equal to the uninterrupted sweep.
func TestRunFileResumeRatingsGrid(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:          17,
		Players:       []int{48},
		ClusterSizes:  []int{12},
		Diameters:     []int{8},
		FixDiameter:   true,
		Dishonest:     []int{0, 2},
		Strategies:    []string{"exaggerators"},
		Protocols:     []string{"ratings", "budgets"},
		Scales:        []int{2, 5},
		CapacityTiers: []CapTier{{Small: 4, Big: 24, BigFrac: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("grid too small to exercise resume: %d points", len(pts))
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err := RunFile(pts, refPath, false, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Kill: keep two intact records plus a torn third line.
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	partial := bytes.Join(lines[:2], nil)
	partial = append(partial, lines[2][:len(lines[2])/2]...)
	killedPath := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killedPath, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	var reran int
	resumed, err := RunFile(pts, killedPath, true, Options{
		Workers:  2,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pts) - 2; reran != want {
		t.Fatalf("resume scheduled %d points, want exactly the %d missing", reran, want)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Fatal("resumed rating-grid records differ from uninterrupted run")
	}
	for _, rec := range resumed {
		if rec.Rounds != rec.MaxProbes {
			t.Fatalf("point %s: rounds column %d != max probes %d", rec.Key, rec.Rounds, rec.MaxProbes)
		}
	}
}

// TestEngineRatingsMatchStandalone: the engine's rating/budget records
// equal the standalone scenario runs for the §8 extensions.
func TestEngineRatingsMatchStandalone(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:         19,
		Players:      []int{48},
		ClusterSizes: []int{12},
		Diameters:    []int{8},
		FixDiameter:  true,
		Dishonest:    []int{2},
		Strategies:   []string{"harsh-shifters"},
		Protocols:    []string{"ratings", "budgets"},
		Scales:       []int{5, 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Run(pts, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		want, err := runPoint(pts[i], false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("point %s: engine record differs from standalone\n got %+v\nwant %+v",
				pts[i].Key(), rec, want)
		}
	}
}

// TestRunFileResumeTruthGrid drives the truth-source axis end to end
// through the engine: a mixed dense/lazy grid across substrates runs,
// resumes from a torn file re-running only the missing points, and every
// lazy record carries exactly the same results as its dense twin (same
// seed, same world — the representation must be invisible in the JSONL).
func TestRunFileResumeTruthGrid(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:         17,
		Players:      []int{48},
		ClusterSizes: []int{12},
		Diameters:    []int{4},
		Dishonest:    []int{0, 2},
		Strategies:   []string{"random-liar"},
		Protocols:    []string{"run", "byzantine", "ratings", "budgets"},
		TruthSources: []string{"dense", "lazy"},
		FixDiameter:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err := RunFile(pts, refPath, false, Options{Workers: 2, ComputeOpt: true})
	if err != nil {
		t.Fatal(err)
	}

	// Pair every lazy record with its dense twin: identical apart from the
	// identity fields and the planted-optimum column (the exact-optimum
	// oracle needs the materialized matrix, so lazy points skip it).
	denseByKey := map[string]Record{}
	for _, rec := range ref {
		if rec.TruthSource == "" {
			denseByKey[rec.Key] = rec
		}
	}
	var lazySeen int
	for _, rec := range ref {
		if rec.TruthSource == "" {
			continue
		}
		lazySeen++
		twin := rec
		twin.TruthSource = ""
		want, ok := denseByKey[twin.Point.Key()]
		if !ok {
			t.Fatalf("lazy record %s has no dense twin", rec.Key)
		}
		if rec.OptError != -1 {
			t.Fatalf("lazy record %s computed the dense-only optimum oracle", rec.Key)
		}
		got := rec
		got.Point.TruthSource, got.Key, got.Index = "", want.Key, want.Index
		got.OptError = want.OptError
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lazy record %s differs from its dense twin beyond identity fields\n got %+v\nwant %+v",
				rec.Key, rec, want)
		}
	}
	if lazySeen == 0 {
		t.Fatal("grid produced no lazy points")
	}

	// Tear the file and resume: only the missing points re-run, and the
	// final record set matches the uninterrupted sweep.
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	k := len(pts) / 2
	partial := bytes.Join(lines[:k], nil)
	partial = append(partial, lines[k][:len(lines[k])/2]...)
	killedPath := filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(killedPath, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	var reran int
	resumed, err := RunFile(pts, killedPath, true, Options{
		Workers:    2,
		ComputeOpt: true,
		Progress:   func(completed, scheduled int, rec Record) { reran = scheduled },
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(pts) - k; reran != want {
		t.Fatalf("resume scheduled %d points, want exactly the %d missing", reran, want)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Fatal("resumed truth-grid records differ from the uninterrupted run")
	}
}
