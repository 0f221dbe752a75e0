package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// panicPoint returns a syntactically valid point whose runner panics
// deterministically (planted cluster larger than the player count —
// Expand never emits it, but hand-built grids and wire input can).
func panicPoint(seed uint64) Point {
	return Point{
		Players: 8, Objects: 8, Budget: 8,
		Plant:    Plant{Kind: "cluster", ClusterSize: 64},
		Protocol: "run", Seed: seed,
	}
}

// TestRunRecoversPointPanic: a panicking point no longer takes down the
// pool — it is reported through OnFailure, and every other point completes
// normally with records identical to a clean run.
func TestRunRecoversPointPanic(t *testing.T) {
	good := testGrid(t)
	ref, err := Run(good, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]Point{panicPoint(7)}, good[:len(good)/2]...),
		append([]Point{panicPoint(9)}, good[len(good)/2:]...)...)
	for i := range mixed {
		mixed[i].Index = i
	}
	var failed []string
	var failErrs []error
	recs, err := Run(mixed, Options{
		Workers: 2,
		OnFailure: func(pt Point, err error) {
			failed = append(failed, pt.Key())
			failErrs = append(failErrs, err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(failed), failed)
	}
	for _, err := range failErrs {
		if _, ok := err.(*PointError); !ok {
			t.Fatalf("failure error %T is not a *PointError: %v", err, err)
		}
	}
	if len(recs) != len(good) {
		t.Fatalf("got %d records for %d good points", len(recs), len(good))
	}
	byKey := make(map[string]Record)
	for _, rec := range recs {
		rec.Index = 0
		byKey[rec.Key] = rec
	}
	for _, want := range ref {
		want.Index = 0
		if got := byKey[want.Key]; !reflect.DeepEqual(got, want) {
			t.Fatalf("point %s: record differs from clean run\n got %+v\nwant %+v", want.Key, got, want)
		}
	}
}

// TestRunSurfacesFailuresWithoutHook: with no OnFailure hook the failures
// come back as one aggregate error AFTER every other point completed —
// never a crash, never silent loss.
func TestRunSurfacesFailuresWithoutHook(t *testing.T) {
	good := testGrid(t)[:3]
	mixed := append([]Point{panicPoint(7)}, good...)
	recs, err := Run(mixed, Options{Workers: 2})
	if err == nil {
		t.Fatal("persistent failure not surfaced")
	}
	if len(recs) != len(good) {
		t.Fatalf("failure discarded the %d good records (got %d)", len(good), len(recs))
	}
}

// TestRunFileTolleratesFailures: RunFile with a failure hook returns the
// completed subset, and the file resumes cleanly once the bad point is
// gone.
func TestRunFileToleratesFailures(t *testing.T) {
	good := testGrid(t)[:4]
	mixed := append([]Point{panicPoint(7)}, good...)
	for i := range mixed {
		mixed[i].Index = i
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var failures int
	recs, err := RunFile(mixed, path, false, Options{
		Workers:   2,
		OnFailure: func(pt Point, err error) { failures++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 || len(recs) != len(good) {
		t.Fatalf("failures=%d records=%d, want 1 and %d", failures, len(recs), len(good))
	}
	// Resuming the good sub-grid over the same file schedules nothing.
	var reran int
	if _, err := RunFile(good, path, true, Options{
		Workers:  1,
		Progress: func(completed, scheduled int, rec Record) { reran = scheduled },
	}); err != nil {
		t.Fatal(err)
	}
	if reran != 0 {
		t.Fatalf("resume after failures reran %d points, want 0", reran)
	}
}

// TestRunStops: closing Options.Stop mid-run stops new points from being
// claimed; completed records flush and the file resumes to exactly the
// reference set — the graceful-shutdown contract of every cmd/sweep mode.
func TestRunStops(t *testing.T) {
	pts := testGrid(t)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err := RunFile(pts, refPath, false, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	path := filepath.Join(dir, "stopped.jsonl")
	k := 3
	partial, err := RunFile(pts, path, false, Options{
		Workers: 1,
		Stop:    stop,
		Progress: func(completed, scheduled int, rec Record) {
			if completed == k {
				close(stop)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) >= len(pts) || len(partial) < k {
		t.Fatalf("stopped run returned %d records for %d points (stopped at %d)", len(partial), len(pts), k)
	}
	// Stopped output is a prefix-by-key subset of the reference records.
	refByKey := make(map[string]Record)
	for _, rec := range ref {
		refByKey[rec.Key] = rec
	}
	for _, rec := range partial {
		if !reflect.DeepEqual(refByKey[rec.Key], rec) {
			t.Fatalf("stopped record %s differs from reference", rec.Key)
		}
	}
	// Resume completes exactly the missing points and matches the reference.
	resumed, err := RunFile(pts, path, true, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Fatal("resumed records differ from uninterrupted reference")
	}
}

// TestShardPartition: shards 0..k-1 cover the grid exactly once, the
// partition is deterministic, and out-of-range shards error.
func TestShardPartition(t *testing.T) {
	pts := testGrid(t)
	for _, k := range []int{1, 2, 3, 5} {
		seen := make(map[string]int)
		total := 0
		for i := 0; i < k; i++ {
			shard, err := Shard(pts, i, k)
			if err != nil {
				t.Fatal(err)
			}
			again, err := Shard(pts, i, k)
			if err != nil || !reflect.DeepEqual(shard, again) {
				t.Fatalf("shard %d/%d is not deterministic", i, k)
			}
			for _, pt := range shard {
				seen[pt.Key()]++
				if pt.Index != pts[pt.Index].Index {
					t.Fatalf("shard lost the full-grid index for %s", pt.Key())
				}
			}
			total += len(shard)
		}
		if total != len(pts) {
			t.Fatalf("k=%d: shards cover %d of %d points", k, total, len(pts))
		}
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("k=%d: point %s appears in %d shards", k, key, n)
			}
		}
	}
	if _, err := Shard(pts, 3, 3); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := Shard(pts, 0, 0); err == nil {
		t.Fatal("zero shard count accepted")
	}
}

func TestParseShard(t *testing.T) {
	cases := []struct {
		in   string
		i, k int
		ok   bool
	}{
		{"", 0, 1, true}, {"0/1", 0, 1, true}, {"2/3", 2, 3, true},
		{"3/3", 0, 0, false}, {"-1/3", 0, 0, false}, {"1", 0, 0, false},
		{"a/b", 0, 0, false}, {"1/0", 0, 0, false},
	}
	for _, c := range cases {
		i, k, err := ParseShard(c.in)
		if (err == nil) != c.ok || (c.ok && (i != c.i || k != c.k)) {
			t.Fatalf("ParseShard(%q) = %d,%d,%v want %d,%d,ok=%v", c.in, i, k, err, c.i, c.k, c.ok)
		}
	}
}

// TestMergeFilesShards: k shard sweeps merged with MergeFiles are
// record-equal to a single-process sweep of the whole grid; overlapping
// identical records deduplicate, conflicting ones error.
func TestMergeFilesShards(t *testing.T) {
	pts := testGrid(t)
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.jsonl")
	ref, err := RunFile(pts, refPath, false, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	const k = 3
	paths := make([]string, 0, k+1)
	for i := 0; i < k; i++ {
		shard, err := Shard(pts, i, k)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, "shard"+string(rune('0'+i))+".jsonl")
		if _, err := RunFile(shard, p, false, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Overlap: the reference file holds every point again — identical
	// records, so the merge must deduplicate, not reject.
	paths = append(paths, refPath)

	merged, err := MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(pts) {
		t.Fatalf("merge holds %d records for %d points", len(merged), len(pts))
	}
	byKey := make(map[string]Record)
	for _, rec := range merged {
		byKey[rec.Key] = rec
	}
	for _, want := range ref {
		want.Index = 0
		got := byKey[want.Key]
		got.Index = 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merged record %s differs from single-process run", want.Key)
		}
	}

	// Conflict: tamper with one shard's record → merge must refuse.
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte(string(raw))
	// Flip a digit inside the first record's max_probes field.
	idx := indexOf(tampered, []byte(`"max_probes":`))
	if idx < 0 {
		t.Fatal("no max_probes field to tamper with")
	}
	tampered[idx+len(`"max_probes":`)] = '9'
	bad := filepath.Join(dir, "tampered.jsonl")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeFiles(refPath, bad); err == nil {
		t.Fatal("conflicting records merged without error")
	}
}

func indexOf(b, sub []byte) int {
	for i := 0; i+len(sub) <= len(b); i++ {
		if string(b[i:i+len(sub)]) == string(sub) {
			return i
		}
	}
	return -1
}
