package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"collabscore/internal/sweep"
)

// smokeSpec is the grid the CLI smoke tests sweep — identical flags and
// in-process spec, so the binary's output can be pinned against a direct
// sweep.Run.
var smokeSpec = sweep.Spec{
	Seed:         23,
	Trials:       3,
	Players:      []int{48, 64, 96},
	ClusterSizes: []int{16},
	Diameters:    []int{4},
	Dishonest:    []int{0, 2},
	Strategies:   []string{"colluders"},
	Protocols:    []string{"run", "byzantine"},
	FixDiameter:  true,
}

var smokeFlags = []string{
	"-n", "48,64,96", "-cluster", "16", "-d", "4", "-fixd",
	"-f", "0,2", "-strategies", "colluders", "-protocols", "run,byzantine",
	"-trials", "3", "-seed", "23",
}

func smokeReference(t *testing.T) []sweep.Record {
	t.Helper()
	pts, err := sweep.Expand(smokeSpec)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := sweep.Run(pts, sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// buildSweep compiles the sweep binary into a temp dir.
func buildSweep(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweep")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// readRecords loads a JSONL file's intact records keyed for comparison.
func recordsByKey(t *testing.T, path string) map[string]sweep.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, _, err := sweep.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[string]sweep.Record, len(recs))
	for _, rec := range recs {
		m[rec.Key] = rec
	}
	return m
}

func assertFileMatchesReference(t *testing.T, path string, ref []sweep.Record) {
	t.Helper()
	got := recordsByKey(t, path)
	if len(got) != len(ref) {
		t.Fatalf("%s holds %d records, reference has %d", path, len(got), len(ref))
	}
	for _, want := range ref {
		rec, ok := got[want.Key]
		if !ok {
			t.Fatalf("record %s lost", want.Key)
		}
		rec.Index = want.Index // not serialized
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("record %s differs from single-process reference\n got %+v\nwant %+v", want.Key, rec, want)
		}
	}
}

// TestShardCLISmoke is the README's shard drill: three coordinator-free
// shards, one of them SIGTERMed mid-run and left with a torn final line (a
// kill -9 mid-write), that shard finished under -resume, and -merge — the
// merged file must equal a single-process run record for record.
func TestShardCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ref := smokeReference(t)
	bin := buildSweep(t)
	dir := t.TempDir()
	const victim = 1

	var shardFiles []string
	for i := 0; i < 3; i++ {
		out := filepath.Join(dir, "s"+strconv.Itoa(i)+".jsonl")
		shardFiles = append(shardFiles, out)
		args := append(append([]string{}, smokeFlags...),
			"-shard", strconv.Itoa(i)+"/3", "-out", out, "-q")
		if i != victim {
			if outb, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("shard %d: %v\n%s", i, err, outb)
			}
			continue
		}
		sigtermOnFirstRecord(t, bin, append(args[:len(args):len(args)], "-workers", "1"), out)
		tearLastLine(t, out)
		resume := append(args, "-resume")
		if outb, err := exec.Command(bin, resume...).CombinedOutput(); err != nil {
			t.Fatalf("resuming shard %d: %v\n%s", i, err, outb)
		}
	}
	merged := filepath.Join(dir, "all.jsonl")
	margs := []string{"-merge", strings.Join(shardFiles, ","), "-out", merged}
	if outb, err := exec.Command(bin, margs...).CombinedOutput(); err != nil {
		t.Fatalf("merge: %v\n%s", err, outb)
	}
	assertFileMatchesReference(t, merged, ref)
}

// sigtermOnFirstRecord starts the binary, SIGTERMs it once out is
// non-empty, and requires the clean exit 0 an interrupted sweep promises.
func sigtermOnFirstRecord(t *testing.T, bin string, args []string, out string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if st, err := os.Stat(out); err == nil && st.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("no records written before the signal")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("signaled sweep exited with %v, want 0", err)
	}
}

// tearLastLine cuts the file's last record in half, as a kill -9 in the
// middle of its write leaves it: at least one point is then missing, and
// -resume must truncate the torn tail before appending.
func tearLastLine(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := b[:len(b)-1] // drop the final newline
	last := bytes.LastIndexByte(body, '\n') + 1
	if err := os.WriteFile(path, b[:last+(len(body)-last)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSigtermResume: SIGTERM a plain sweep mid-run; it must exit 0 with an
// intact (possibly partial) JSONL file, and -resume must finish it to the
// exact reference.
func TestSigtermResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ref := smokeReference(t)
	bin := buildSweep(t)
	out := filepath.Join(t.TempDir(), "run.jsonl")

	args := append(append([]string{}, smokeFlags...), "-out", out, "-workers", "1", "-q")
	sigtermOnFirstRecord(t, bin, args, out)

	resume := append(append([]string{}, smokeFlags...), "-out", out, "-resume", "-q")
	if outb, err := exec.Command(bin, resume...).CombinedOutput(); err != nil {
		t.Fatalf("resume: %v\n%s", err, outb)
	}
	assertFileMatchesReference(t, out, ref)
}

// TestShardResumeRefusesForeignRecords: resuming one shard into a file
// that a full single-process run wrote must exit non-zero and leave the
// file byte for byte as it was, not rewrite it down to that shard's
// records.
func TestShardResumeRefusesForeignRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildSweep(t)
	out := filepath.Join(t.TempDir(), "full.jsonl")
	grid := []string{"-n", "48,64", "-cluster", "16", "-d", "4", "-fixd",
		"-protocols", "run,baseline", "-f", "0,2", "-out", out, "-q"}
	if outb, err := exec.Command(bin, grid...).CombinedOutput(); err != nil {
		t.Fatalf("full run: %v\n%s", err, outb)
	}
	before, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(before, []byte("\n")); n != 8 {
		t.Fatalf("full run wrote %d records, want 8", n)
	}
	outb, err := exec.Command(bin, append(grid, "-shard", "1/3", "-resume")...).CombinedOutput()
	if err == nil {
		t.Fatalf("shard resume over the full file exited 0\n%s", outb)
	}
	if !strings.Contains(string(outb), out) {
		t.Fatalf("error does not name %s:\n%s", out, outb)
	}
	after, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the refused shard resume changed the file")
	}
}
