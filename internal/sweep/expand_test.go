package sweep

import (
	"math"
	"reflect"
	"testing"
)

func TestExpandDefaults(t *testing.T) {
	pts, err := Expand(Spec{Seed: 1, Players: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("default spec expanded to %d points, want 1", len(pts))
	}
	pt := pts[0]
	if pt.Objects != 64 || pt.Budget != 8 || pt.Plant.Kind != "uniform" ||
		pt.Dishonest != 0 || pt.Strategy != "" || pt.Protocol != "byzantine" || pt.Trial != 0 {
		t.Fatalf("unexpected default point: %+v", pt)
	}
	if _, err := pt.Scenario(); err != nil {
		t.Fatalf("default point scenario: %v", err)
	}
}

func TestExpandGridShape(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:         7,
		Trials:       2,
		Players:      []int{64, 128},
		Budgets:      []int{4, 8},
		ClusterSizes: []int{16},
		Diameters:    []int{4, 8},
		Dishonest:    []int{0, 2},
		Strategies:   []string{"colluders", "random-liar"},
		Protocols:    []string{"run", "byzantine"},
		FixDiameter:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// players(2) × budgets(2) × diameters(2) × [f=0: 1 strategy-slot,
	// f=2: 2 strategies] × protocols(2) × trials(2).
	want := 2 * 2 * 2 * (1 + 2) * 2 * 2
	if len(pts) != want {
		t.Fatalf("expanded to %d points, want %d", len(pts), want)
	}
	keys := make(map[string]struct{}, len(pts))
	for i, pt := range pts {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
		k := pt.Key()
		if _, dup := keys[k]; dup {
			t.Fatalf("duplicate key %s", k)
		}
		keys[k] = struct{}{}
		if pt.Dishonest == 0 && pt.Strategy != "" {
			t.Fatalf("honest point %s carries strategy %q", k, pt.Strategy)
		}
		if !pt.FixDiameter || pt.Diameter == 0 {
			t.Fatalf("point %s lost the diameter axis", k)
		}
	}
}

// TestExpandSeedsIgnoreComparisonAxes: points differing only in dishonest
// count, strategy, or protocol share a seed (paired comparisons over the
// identical world); points differing in any instance-defining coordinate
// get independent seeds.
func TestExpandSeedsIgnoreComparisonAxes(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:         3,
		Players:      []int{64},
		ClusterSizes: []int{16},
		Diameters:    []int{4},
		Dishonest:    []int{0, 4},
		Strategies:   []string{"colluders", "flip-all"},
		Protocols:    []string{"run", "byzantine"},
	})
	if err != nil {
		t.Fatal(err)
	}
	seed := pts[0].Seed
	for _, pt := range pts {
		if pt.Seed != seed {
			t.Fatalf("point %s has seed %d, want shared %d", pt.Key(), pt.Seed, seed)
		}
	}
	pts2, err := Expand(Spec{Seed: 3, Players: []int{64}, ClusterSizes: []int{16}, Diameters: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if pts2[0].Seed == seed {
		t.Fatal("different diameter should derive a different seed")
	}
}

// TestExpandSeedsOrderInvariant: reordering axis value lists permutes the
// points but changes no (key → seed) association.
func TestExpandSeedsOrderInvariant(t *testing.T) {
	a, err := Expand(Spec{
		Seed: 5, Trials: 2,
		Players: []int{64, 128}, ClusterSizes: []int{8, 16}, Diameters: []int{2, 4},
		Dishonest: []int{0, 3}, Protocols: []string{"run", "byzantine"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(Spec{
		Seed: 5, Trials: 2,
		Players: []int{128, 64}, ClusterSizes: []int{16, 8}, Diameters: []int{4, 2},
		Dishonest: []int{3, 0}, Protocols: []string{"byzantine", "run"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("reordered axes changed point count: %d vs %d", len(a), len(b))
	}
	seeds := make(map[string]uint64, len(a))
	for _, pt := range a {
		seeds[pt.Key()] = pt.Seed
	}
	for _, pt := range b {
		want, ok := seeds[pt.Key()]
		if !ok {
			t.Fatalf("reordered axes produced new point %s", pt.Key())
		}
		if pt.Seed != want {
			t.Fatalf("point %s seed depends on axis order: %d vs %d", pt.Key(), pt.Seed, want)
		}
	}
}

func TestExpandSkipsInvalidCombos(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:         1,
		Players:      []int{8, 64},
		ClusterSizes: []int{16},
		Dishonest:    []int{0, 32},
		Protocols:    []string{"run"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Plant.ClusterSize > pt.Players {
			t.Fatalf("kept unplantable point %s", pt.Key())
		}
		if pt.Dishonest > pt.Players {
			t.Fatalf("kept over-corrupted point %s", pt.Key())
		}
	}
	// n=8 skips both cluster-size 16 and f=32; n=64 keeps both.
	if len(pts) != 2 {
		t.Fatalf("expanded to %d points, want 2", len(pts))
	}
}

func TestExpandDeduplicatesResolvedAxes(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:    1,
		Players: []int{64, 64},
		Objects: []int{0, 64},
		Budgets: []int{0, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("resolved-duplicate axes expanded to %d points, want 1", len(pts))
	}
}

func TestExpandErrors(t *testing.T) {
	bad := []Spec{
		{Seed: 1},                    // no players
		{Seed: 1, Players: []int{0}}, // players < 1
		{Seed: 1, Players: []int{8}, ClusterSizes: []int{0}},                           // cluster size < 1
		{Seed: 1, Players: []int{8}, Strategies: []string{"nope"}},                     // unknown strategy
		{Seed: 1, Players: []int{8}, Protocols: []string{"nope"}},                      // unknown protocol
		{Seed: 1, Players: []int{8}, Dishonest: []int{-1}},                             // negative corruption
		{Seed: 1, Players: []int{8}, Diameters: []int{-2}},                             // negative diameter
		{Seed: 1, Players: []int{8}, ZipfClusters: []int{2}, ZipfAlphas: []float64{0}}, // bad alpha
	}
	for i, sp := range bad {
		if _, err := Expand(sp); err == nil {
			t.Fatalf("spec %d: expected error", i)
		}
	}
}

func TestMerge(t *testing.T) {
	a, _ := Expand(Spec{Seed: 1, Players: []int{64}, Protocols: []string{"run"}})
	b, _ := Expand(Spec{Seed: 1, Players: []int{128}, Protocols: []string{"run"}})
	merged, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != 2 || merged[0].Index != 0 || merged[1].Index != 1 {
		t.Fatalf("bad merge: %+v", merged)
	}
	if _, err := Merge(a, a); err == nil {
		t.Fatal("Merge accepted duplicate grids")
	}
}

func TestExpandDeterministic(t *testing.T) {
	sp := Spec{
		Seed: 9, Trials: 2,
		Players: []int{64, 96}, ClusterSizes: []int{8}, ZipfClusters: []int{3},
		Diameters: []int{2, 4}, Dishonest: []int{0, 2},
		Protocols: []string{"run", "byzantine"}, FixDiameter: true,
	}
	a, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Expand is not deterministic")
	}
}

// TestExpandExtensionAxes: the scale axis applies to ratings points only,
// the capacity-tier axis to budgets points only, and substrate-mismatched
// strategy combinations are skipped deterministically.
func TestExpandExtensionAxes(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:          13,
		Players:       []int{64},
		ClusterSizes:  []int{16},
		Diameters:     []int{8},
		FixDiameter:   true,
		Dishonest:     []int{0, 2},
		Strategies:    []string{"exaggerators", "colluders", "random-liar"},
		Protocols:     []string{"byzantine", "ratings", "budgets"},
		Scales:        []int{0, 2, 10}, // 0 resolves to the default 5
		CapacityTiers: []CapTier{{}, {Small: 8, Big: 32, BigFrac: 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, pt := range pts {
		counts[pt.Protocol]++
		switch pt.Protocol {
		case "ratings":
			if pt.Scale == 0 {
				t.Fatalf("ratings point %s has no scale", pt.Key())
			}
			if !pt.Cap.IsZero() {
				t.Fatalf("ratings point %s carries a capacity tier", pt.Key())
			}
			if pt.Strategy == "colluders" {
				t.Fatalf("binary-only strategy survived on ratings point %s", pt.Key())
			}
		case "budgets":
			if pt.Scale != 0 {
				t.Fatalf("budgets point %s carries a scale", pt.Key())
			}
			if pt.Strategy == "exaggerators" {
				t.Fatalf("rating-only strategy survived on budgets point %s", pt.Key())
			}
		default:
			if pt.Scale != 0 || !pt.Cap.IsZero() {
				t.Fatalf("binary point %s carries extension axes", pt.Key())
			}
		}
		if _, err := pt.Scenario(); err != nil {
			t.Fatalf("point %s scenario: %v", pt.Key(), err)
		}
	}
	// byzantine: f=0 (1) + f=2 × {colluders, random-liar} (2) = 3.
	if counts["byzantine"] != 3 {
		t.Fatalf("byzantine points: %d, want 3", counts["byzantine"])
	}
	// ratings: 3 scales × (f=0 once + f=2 × {exaggerators, random-liar}) = 9.
	if counts["ratings"] != 9 {
		t.Fatalf("ratings points: %d, want 9", counts["ratings"])
	}
	// budgets: 2 tiers × (f=0 once + f=2 × {colluders, random-liar}) = 6.
	if counts["budgets"] != 6 {
		t.Fatalf("budgets points: %d, want 6", counts["budgets"])
	}
}

// TestExpandRatingsNeedClusterPlanting: rating points are skipped for
// uniform and Zipf plantings (the rating generator plants clusters).
func TestExpandRatingsNeedClusterPlanting(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:         1,
		Players:      []int{64},
		ZipfClusters: []int{4},
		Protocols:    []string{"ratings", "run"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.Protocol == "ratings" {
			t.Fatalf("ratings point %s kept a non-cluster planting", pt.Key())
		}
	}
	if len(pts) == 0 {
		t.Fatal("run points should survive")
	}
}

// TestExpandExtensionSeeds: the rating scale is instance-defining (distinct
// scales get independent seeds) while the capacity tier is a comparison
// axis (all tiers share their coordinate's seed with the binary
// protocols) — and binary points derive exactly the seeds they did before
// the extension axes existed.
func TestExpandExtensionSeeds(t *testing.T) {
	sp := Spec{
		Seed:          3,
		Players:       []int{64},
		ClusterSizes:  []int{16},
		Diameters:     []int{4},
		Protocols:     []string{"byzantine", "budgets", "ratings"},
		Scales:        []int{2, 5},
		CapacityTiers: []CapTier{{Small: 4, Big: 16, BigFrac: 0.5}, {Small: 8, Big: 32, BigFrac: 0.25}},
	}
	pts, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	seedsByProto := map[string]map[uint64]bool{}
	scaleSeeds := map[int]uint64{}
	for _, pt := range pts {
		if seedsByProto[pt.Protocol] == nil {
			seedsByProto[pt.Protocol] = map[uint64]bool{}
		}
		seedsByProto[pt.Protocol][pt.Seed] = true
		if pt.Protocol == "ratings" {
			scaleSeeds[pt.Scale] = pt.Seed
		}
	}
	// Binary and budgets points (any tier) share one seed: paired columns.
	if len(seedsByProto["byzantine"]) != 1 || len(seedsByProto["budgets"]) != 1 {
		t.Fatalf("comparison protocols split seeds: %+v", seedsByProto)
	}
	var byz, bud uint64
	for s := range seedsByProto["byzantine"] {
		byz = s
	}
	for s := range seedsByProto["budgets"] {
		bud = s
	}
	if byz != bud {
		t.Fatal("budgets points do not share the binary world seed")
	}
	// Distinct scales are distinct instances.
	if len(scaleSeeds) != 2 || scaleSeeds[2] == scaleSeeds[5] {
		t.Fatalf("rating scales share a seed: %+v", scaleSeeds)
	}
	if scaleSeeds[2] == byz {
		t.Fatal("rating point reuses the binary seed")
	}
	// Pre-extension binary seeds are unchanged: the same grid without the
	// extension protocols derives the identical seed for the same key.
	ref, err := Expand(Spec{
		Seed: 3, Players: []int{64}, ClusterSizes: []int{16}, Diameters: []int{4},
		Protocols: []string{"byzantine"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ref[0].Seed != byz {
		t.Fatal("adding extension axes changed a binary point's seed")
	}
}

// TestParseCapTier pins the strict tier parsing: round trips, defaults,
// and rejection of garbage, extra fields, and non-finite fractions (a NaN
// fraction would silently degenerate TwoTier to all-small capacities).
func TestParseCapTier(t *testing.T) {
	for _, s := range []string{"", "default"} {
		ct, err := ParseCapTier(s)
		if err != nil || !ct.IsZero() {
			t.Fatalf("ParseCapTier(%q) = %+v, %v", s, ct, err)
		}
	}
	ct, err := ParseCapTier("16:256:0.25")
	if err != nil || ct != (CapTier{Small: 16, Big: 256, BigFrac: 0.25}) {
		t.Fatalf("ParseCapTier round trip: %+v, %v", ct, err)
	}
	if got, err := ParseCapTier(ct.String()); err != nil || got != ct {
		t.Fatalf("String round trip: %+v, %v", got, err)
	}
	for _, bad := range []string{
		"16:256", "16:256:0.25:9", "16:256:0.25x", "x:256:0.25",
		"16:256:NaN", "16:256:+Inf", "16:256:1.5", "16:256:-0.1", "-1:256:0.5",
	} {
		if _, err := ParseCapTier(bad); err == nil {
			t.Fatalf("ParseCapTier accepted %q", bad)
		}
	}
	// Expand rejects NaN fractions arriving through JSON-built specs too.
	if _, err := Expand(Spec{
		Seed: 1, Players: []int{8}, Protocols: []string{"budgets"},
		CapacityTiers: []CapTier{{Small: 1, Big: 2, BigFrac: math.NaN()}},
	}); err == nil {
		t.Fatal("Expand accepted a NaN capacity fraction")
	}
}

// TestExpandNeighborIndexAxis: the neighbor-index axis applies to the
// clustering protocols only, canonicalizes the exact default to "" (keys
// and seeds identical to a spec without the axis), and pairs LSH points
// with their exact twins on the same seed.
func TestExpandNeighborIndexAxis(t *testing.T) {
	sp := Spec{
		Seed:            9,
		Players:         []int{64},
		ClusterSizes:    []int{16},
		Diameters:       []int{4},
		Protocols:       []string{"run", "byzantine", "budgets", "baseline", "ratings"},
		NeighborIndexes: []string{"exact", "lsh", "lsh:8:6"},
	}
	pts, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string][]Point{}
	for _, pt := range pts {
		byProto[pt.Protocol] = append(byProto[pt.Protocol], pt)
		if _, err := pt.Scenario(); err != nil {
			t.Fatalf("point %s scenario: %v", pt.Key(), err)
		}
	}
	for _, proto := range []string{"run", "byzantine", "budgets"} {
		if got := len(byProto[proto]); got != 3 {
			t.Fatalf("%s points: %d, want 3 (exact, lsh, lsh:8:6)", proto, got)
		}
		seeds := map[uint64]bool{}
		nidx := map[string]bool{}
		for _, pt := range byProto[proto] {
			seeds[pt.Seed] = true
			nidx[pt.NeighborIndex] = true
			sc, err := pt.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			if sc.Config.NeighborIndex != pt.NeighborIndex {
				t.Fatalf("point %s: scenario index %q", pt.Key(), sc.Config.NeighborIndex)
			}
		}
		// Paired comparisons: one seed across the axis.
		if len(seeds) != 1 {
			t.Fatalf("%s: index axis split seeds %v", proto, seeds)
		}
		if !nidx[""] || !nidx["lsh"] || !nidx["lsh:8:6"] {
			t.Fatalf("%s: canonical index values %v", proto, nidx)
		}
	}
	// Non-clustering protocols collapse the axis entirely.
	for _, proto := range []string{"baseline", "ratings"} {
		if got := len(byProto[proto]); got != 1 {
			t.Fatalf("%s points: %d, want 1 (axis must collapse)", proto, got)
		}
		if byProto[proto][0].NeighborIndex != "" {
			t.Fatalf("%s point carries a neighbor index", proto)
		}
	}
	// Exact points keep the exact historical key and seed of a spec with no
	// axis at all.
	ref, err := Expand(Spec{
		Seed: 9, Players: []int{64}, ClusterSizes: []int{16}, Diameters: []int{4},
		Protocols: []string{"run", "byzantine", "budgets", "baseline", "ratings"},
	})
	if err != nil {
		t.Fatal(err)
	}
	refByKey := map[string]Point{}
	for _, pt := range ref {
		refByKey[pt.Key()] = pt
	}
	for _, pt := range pts {
		if pt.NeighborIndex != "" {
			if _, clash := refByKey[pt.Key()]; clash {
				t.Fatalf("LSH point key %s collides with a default point", pt.Key())
			}
			continue
		}
		rp, ok := refByKey[pt.Key()]
		if !ok {
			t.Fatalf("exact point key %s missing from the no-axis grid", pt.Key())
		}
		if rp.Seed != pt.Seed {
			t.Fatalf("exact point %s seed changed with the axis present", pt.Key())
		}
	}

	// Invalid axis entries are rejected.
	for _, bad := range []string{"lsh:0:3", "banding", "lsh:2"} {
		sp := sp
		sp.NeighborIndexes = []string{bad}
		if _, err := Expand(sp); err == nil {
			t.Fatalf("Expand accepted neighbor index %q", bad)
		}
	}
	// Invalid index on a JSONL-borne point is caught by Scenario.
	pt := pts[0]
	pt.NeighborIndex = "garbage"
	if _, err := pt.Scenario(); err == nil {
		t.Fatal("Scenario accepted a garbage neighbor index")
	}
}

// TestExpandNeighborIndexRepForms: the graph-representation suffix rides
// the same axis. Only the full default "exact+auto" collapses to the
// historical "" key; a forced representation like "exact+sparse" is a
// distinct point (canonicalizing on IsExact alone would wrongly erase it).
func TestExpandNeighborIndexRepForms(t *testing.T) {
	pts, err := Expand(Spec{
		Seed:            3,
		Players:         []int{64},
		ClusterSizes:    []int{16},
		Diameters:       []int{4},
		Protocols:       []string{"run"},
		NeighborIndexes: []string{"exact+auto", "exact+sparse", "lsh+sparse", "lsh+auto"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, pt := range pts {
		got[pt.NeighborIndex] = true
		if _, err := pt.Scenario(); err != nil {
			t.Fatalf("point %s scenario: %v", pt.Key(), err)
		}
	}
	want := map[string]bool{"": true, "exact+sparse": true, "lsh+sparse": true, "lsh": true}
	if len(pts) != len(want) {
		t.Fatalf("expanded %d points %v, want %d", len(pts), got, len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("canonical axis values %v missing %q", got, k)
		}
	}
	if _, err := Expand(Spec{
		Seed: 3, Players: []int{64}, ClusterSizes: []int{16}, Diameters: []int{4},
		Protocols: []string{"run"}, NeighborIndexes: []string{"lsh+csr"},
	}); err == nil {
		t.Fatal("Expand accepted an unknown representation suffix")
	}
}

// TestExpandTruthSourceAxis: the truth-representation axis applies to every
// protocol, canonicalizes the dense default to "" (keys and seeds identical
// to a spec without the axis), and pairs lazy points with their dense twins
// on the same seed — the representation is never instance-defining.
func TestExpandTruthSourceAxis(t *testing.T) {
	sp := Spec{
		Seed:         13,
		Players:      []int{64},
		ClusterSizes: []int{16},
		Diameters:    []int{4},
		Protocols:    []string{"run", "byzantine", "budgets", "baseline", "ratings"},
		TruthSources: []string{"dense", "lazy"},
	}
	pts, err := Expand(sp)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string][]Point{}
	for _, pt := range pts {
		byProto[pt.Protocol] = append(byProto[pt.Protocol], pt)
		sc, err := pt.Scenario()
		if err != nil {
			t.Fatalf("point %s scenario: %v", pt.Key(), err)
		}
		if sc.Config.TruthSource != pt.TruthSource {
			t.Fatalf("point %s: scenario truth source %q", pt.Key(), sc.Config.TruthSource)
		}
	}
	for _, proto := range []string{"run", "byzantine", "budgets", "baseline", "ratings"} {
		if got := len(byProto[proto]); got != 2 {
			t.Fatalf("%s points: %d, want 2 (dense, lazy)", proto, got)
		}
		seeds := map[uint64]bool{}
		srcs := map[string]bool{}
		for _, pt := range byProto[proto] {
			seeds[pt.Seed] = true
			srcs[pt.TruthSource] = true
		}
		// Paired comparisons: one seed across the axis.
		if len(seeds) != 1 {
			t.Fatalf("%s: truth axis split seeds %v", proto, seeds)
		}
		if !srcs[""] || !srcs["lazy"] {
			t.Fatalf("%s: canonical truth values %v", proto, srcs)
		}
	}
	// Dense points keep the exact historical key and seed of a spec with no
	// axis at all.
	noAxis := sp
	noAxis.TruthSources = nil
	ref, err := Expand(noAxis)
	if err != nil {
		t.Fatal(err)
	}
	refByKey := map[string]Point{}
	for _, pt := range ref {
		refByKey[pt.Key()] = pt
	}
	for _, pt := range pts {
		if pt.TruthSource != "" {
			if _, clash := refByKey[pt.Key()]; clash {
				t.Fatalf("lazy point key %s collides with a default point", pt.Key())
			}
			continue
		}
		rp, ok := refByKey[pt.Key()]
		if !ok {
			t.Fatalf("dense point key %s missing from the no-axis grid", pt.Key())
		}
		if rp.Seed != pt.Seed {
			t.Fatalf("dense point %s seed changed with the axis present", pt.Key())
		}
	}
	// "dense" and "" collapse to one canonical value, not two grid slices.
	collapsed := sp
	collapsed.TruthSources = []string{"", "dense", "lazy", "lazy"}
	cpts, err := Expand(collapsed)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(ref) * 2; len(cpts) != want {
		t.Fatalf("duplicate-laden axis expanded to %d points, want %d", len(cpts), want)
	}

	// Invalid axis entries are rejected.
	for _, bad := range []string{"lazy:0", "lazy:16", "sparse", "lazy:", "lazy:-1", "LAZY"} {
		sp := sp
		sp.TruthSources = []string{bad}
		if _, err := Expand(sp); err == nil {
			t.Fatalf("Expand accepted truth source %q", bad)
		}
	}
	// Invalid source on a JSONL-borne point is caught by Scenario.
	pt := pts[0]
	pt.TruthSource = "garbage"
	if _, err := pt.Scenario(); err == nil {
		t.Fatal("Scenario accepted a garbage truth source")
	}
}
