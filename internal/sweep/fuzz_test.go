package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"collabscore/internal/xrand"
)

// fuzzSpec derives a bounded pseudo-random Spec from the fuzz seed. All
// axis values stay tiny so expansion is fast, but the shape space (which
// axes are present, how many values, which planting modes) is explored
// broadly.
func fuzzSpec(seed uint64) Spec {
	rng := xrand.New(seed)
	pick := func(k, lo, hi int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = lo + rng.Intn(hi-lo+1)
		}
		return out
	}
	sp := Spec{
		Seed:    rng.Uint64(),
		Trials:  rng.Intn(3),
		Players: pick(1+rng.Intn(3), 1, 12),
	}
	if rng.Bool() {
		sp.Objects = pick(1+rng.Intn(2), 0, 10)
	}
	if rng.Bool() {
		sp.Budgets = pick(1+rng.Intn(2), 0, 4)
	}
	if rng.Bool() {
		sp.ClusterSizes = pick(1+rng.Intn(2), 1, 10)
	}
	if rng.Bool() {
		sp.ZipfClusters = pick(1+rng.Intn(2), 1, 3)
		sp.ZipfAlphas = []float64{0.5 + rng.Float64()}
	}
	if rng.Bool() {
		sp.Diameters = pick(1+rng.Intn(2), 0, 6)
	}
	if rng.Bool() {
		sp.Dishonest = pick(1+rng.Intn(3), 0, 14)
	}
	strategies := []string{"random-liar", "colluders", "flip-all", "zero-spam", "exaggerators", "harsh-shifters"}
	if rng.Bool() {
		sp.Strategies = []string{strategies[rng.Intn(len(strategies))], strategies[rng.Intn(len(strategies))]}
	}
	protocols := []string{"run", "byzantine", "baseline", "probe-all", "random-guess", "ratings", "budgets"}
	if rng.Bool() {
		sp.Protocols = []string{protocols[rng.Intn(len(protocols))], protocols[rng.Intn(len(protocols))]}
	}
	if rng.Bool() {
		sp.Scales = pick(1+rng.Intn(2), 0, 9)
	}
	if rng.Bool() {
		sp.CapacityTiers = []CapTier{{}, {Small: 1 + rng.Intn(4), Big: 4 + rng.Intn(16), BigFrac: 0.25}}
	}
	sp.FixDiameter = rng.Bool()
	sp.PaperConstants = rng.Bool()
	return sp
}

// reverseInts/reverseStrs produce reordered-axis variants for the
// order-invariance check.
func reverseInts(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

func reverseStrs(xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// FuzzExpand checks the expander's invariants on arbitrary axis specs:
// no duplicate points, no skipped (then re-emitted) points, valid and
// convertible points only, deterministic re-expansion, and key→seed
// associations independent of axis value order.
func FuzzExpand(f *testing.F) {
	for s := uint64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sp := fuzzSpec(seed)
		pts, err := Expand(sp)
		if err != nil {
			t.Skip() // structurally invalid spec (e.g. empty players) — fine
		}
		keys := make(map[string]uint64, len(pts))
		for i, pt := range pts {
			if pt.Index != i {
				t.Fatalf("point %d has index %d", i, pt.Index)
			}
			k := pt.Key()
			if _, dup := keys[k]; dup {
				t.Fatalf("duplicate point %s", k)
			}
			keys[k] = pt.Seed
			if pt.Players < 1 || pt.Objects < 1 || pt.Budget < 1 {
				t.Fatalf("unresolved point %s", k)
			}
			if pt.Plant.Kind == "cluster" && pt.Plant.ClusterSize > pt.Players {
				t.Fatalf("unplantable point %s survived", k)
			}
			if pt.Dishonest > pt.Players {
				t.Fatalf("over-corrupted point %s survived", k)
			}
			if pt.Dishonest == 0 && pt.Strategy != "" {
				t.Fatalf("honest point %s carries a strategy", k)
			}
			if _, err := pt.Scenario(); err != nil {
				t.Fatalf("point %s does not convert: %v", k, err)
			}
		}

		// Re-expansion is deterministic.
		again, err := Expand(sp)
		if err != nil || len(again) != len(pts) {
			t.Fatalf("re-expansion differs: %d vs %d points (%v)", len(again), len(pts), err)
		}
		for i := range pts {
			if pts[i] != again[i] {
				t.Fatalf("re-expansion changed point %d", i)
			}
		}

		// Axis value order is irrelevant to the point set and its seeds.
		rev := sp
		rev.Players = reverseInts(sp.Players)
		rev.Objects = reverseInts(sp.Objects)
		rev.Budgets = reverseInts(sp.Budgets)
		rev.ClusterSizes = reverseInts(sp.ClusterSizes)
		rev.Diameters = reverseInts(sp.Diameters)
		rev.Dishonest = reverseInts(sp.Dishonest)
		rev.Strategies = reverseStrs(sp.Strategies)
		rev.Protocols = reverseStrs(sp.Protocols)
		rev.Scales = reverseInts(sp.Scales)
		reordered, err := Expand(rev)
		if err != nil {
			t.Fatalf("reordered spec failed: %v", err)
		}
		if len(reordered) != len(pts) {
			t.Fatalf("reordered spec expanded to %d points, want %d", len(reordered), len(pts))
		}
		for _, pt := range reordered {
			want, ok := keys[pt.Key()]
			if !ok {
				t.Fatalf("reordered spec produced new point %s", pt.Key())
			}
			if pt.Seed != want {
				t.Fatalf("point %s seed depends on axis order", pt.Key())
			}
		}
	})
}

// FuzzResume checks the resume plan against arbitrarily truncated JSONL:
// whatever byte prefix of a results file survives a kill, the intact
// records parse back exactly, and the pending set re-runs exactly the
// missing points — nothing twice, nothing dropped.
func FuzzResume(f *testing.F) {
	f.Add(uint64(1), uint(40))
	f.Add(uint64(2), uint(0))
	f.Add(uint64(3), uint(1<<20))
	f.Fuzz(func(t *testing.T, seed uint64, cut uint) {
		sp := fuzzSpec(seed)
		pts, err := Expand(sp)
		if err != nil || len(pts) == 0 {
			t.Skip()
		}
		// Fabricate a full results file (measurement values are irrelevant
		// to resume; only keys and framing matter).
		var buf bytes.Buffer
		for i, pt := range pts {
			rec := Record{Point: pt, Key: pt.Key(), MaxError: i, MaxProbes: int64(i)}
			if err := WriteRecord(&buf, rec); err != nil {
				t.Fatal(err)
			}
		}
		full := buf.Bytes()
		cutAt := int(cut % uint(len(full)+1))
		torn := full[:cutAt]

		recs, intact, err := ReadRecords(bytes.NewReader(torn))
		if err != nil {
			t.Fatal(err)
		}
		if intact > int64(cutAt) {
			t.Fatalf("intact offset %d past file size %d", intact, cutAt)
		}
		// Every parsed record is an exact record of the full file, in
		// order, and the intact offset is the byte length of those lines.
		lines := bytes.SplitAfter(full, []byte("\n"))
		if len(recs) > len(pts) {
			t.Fatalf("parsed %d records from a %d-point file", len(recs), len(pts))
		}
		var wantIntact int64
		for i := range recs {
			wantIntact += int64(len(lines[i]))
			var want Record
			if err := json.Unmarshal(lines[i], &want); err != nil {
				t.Fatal(err)
			}
			if recs[i].Key != want.Key || recs[i].MaxError != want.MaxError {
				t.Fatalf("record %d corrupted by truncation handling", i)
			}
		}
		if intact != wantIntact {
			t.Fatalf("intact offset %d, want %d", intact, wantIntact)
		}

		// The pending plan is exactly the complement of the intact records.
		done := completedKeys(recs)
		pending := 0
		for _, pt := range pts {
			if _, ok := done[pt.Key()]; !ok {
				pending++
			}
		}
		if pending != len(pts)-len(recs) {
			t.Fatalf("pending %d + done %d != %d points", pending, len(recs), len(pts))
		}
	})
}

// FuzzReadRecordsGarbage: ReadRecords must never error or mis-frame on
// arbitrary bytes — garbage yields zero records at offset 0, valid
// prefixes yield exactly their records.
func FuzzReadRecordsGarbage(f *testing.F) {
	f.Add([]byte("not json\n"))
	f.Add([]byte("{\"key\":\"\"}\n"))
	f.Add([]byte{})
	f.Add([]byte(fmt.Sprintf("{\"key\":\"k\",\"n\":1,\"m\":1,\"b\":8,\"plant\":{\"kind\":\"uniform\"},\"d\":0,\"protocol\":\"run\",\"trial\":0,\"seed\":1,\"max_error\":0,\"mean_error\":0,\"max_probes\":0,\"mean_probes\":0,\"total_probes\":0,\"opt_error\":-1,\"honest_leaders\":0,\"repetitions\":0,\"comm_writes\":0,\"comm_reads\":0}\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, intact, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadRecords errored on arbitrary bytes: %v", err)
		}
		if intact < 0 || intact > int64(len(data)) {
			t.Fatalf("intact offset %d outside [0,%d]", intact, len(data))
		}
		for _, rec := range recs {
			if rec.Key == "" {
				t.Fatal("accepted a record with empty key")
			}
		}
		// The intact prefix re-parses to the same records.
		again, intact2, err := ReadRecords(bytes.NewReader(data[:intact]))
		if err != nil || intact2 != intact || len(again) != len(recs) {
			t.Fatalf("intact prefix does not round-trip: %d/%d records, offset %d/%d, err %v",
				len(again), len(recs), intact2, intact, err)
		}
	})
}
