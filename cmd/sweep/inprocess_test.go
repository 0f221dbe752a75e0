package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"collabscore/internal/sweep"
)

// In-process exercises of the CLI's mode functions and flag parsers (the
// process-spawning drills live in main_test.go and skip under -short).

func TestFlagListParsers(t *testing.T) {
	if got := intList("1,2, 3,,4"); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("intList: %v", got)
	}
	if got := intList(""); got != nil {
		t.Fatalf("intList empty: %v", got)
	}
	if got := floatList("0.5,1.25"); !reflect.DeepEqual(got, []float64{0.5, 1.25}) {
		t.Fatalf("floatList: %v", got)
	}
	if got := strList(" a, ,b,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("strList: %v", got)
	}
	tiers := tierList("16:256:0.25,default")
	if len(tiers) != 2 || tiers[0].Small != 16 || tiers[0].Big != 256 {
		t.Fatalf("tierList: %+v", tiers)
	}
}

func smokePoints(t *testing.T) []sweep.Point {
	t.Helper()
	pts, err := sweep.Expand(sweep.Spec{
		Seed: 23, Trials: 1,
		Players: []int{48}, ClusterSizes: []int{16}, Diameters: []int{4},
		Dishonest: []int{0, 2}, Strategies: []string{"colluders"},
		Protocols: []string{"run"}, FixDiameter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestMergeModeAndSummary covers mergeMode's happy path plus the summary
// printer with failed points.
func TestMergeModeAndSummary(t *testing.T) {
	pts := smokePoints(t)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	recs, err := sweep.RunFile(pts, a, false, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "merged.jsonl")
	mergeMode([]string{a, a}, out) // self-overlap: pure dedup

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	merged, _, err := sweep.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(recs) {
		t.Fatalf("merged %d records, want %d", len(merged), len(recs))
	}

	printSummary(recs, []string{"some-key"})
}
