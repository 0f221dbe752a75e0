// Package sweep is the scenario-grid engine: it expands declarative axis
// specifications into deterministic grid points, schedules the points
// across a worker pool (each point builds its simulation on fresh
// allocations), streams results to a JSONL sink as points complete,
// supports resuming an interrupted sweep from its partial output file, and
// aggregates results through internal/metrics. See DESIGN.md §11.
//
// A point exists only when collabscore.Scenario.Validate accepts its
// scenario: Expand skips the combinations it refuses, and Point.Scenario
// returns its error for points read back from files.
//
// Determinism contract: every point's seed is derived by splitting the
// spec's root seed with the point's instance-defining coordinates
// (xrand.SplitValue), so a point's result depends only on its own
// coordinates — never on execution order, worker count, which other axis
// values exist in the grid, or whether the run was resumed. Points that
// differ only in dishonest count, strategy, or protocol share a seed on
// purpose: they run over the identical planted world (and the identical
// corruption permutation prefix), which is what makes sweep columns
// directly comparable, paired comparisons rather than independent draws.
package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"collabscore"
	"collabscore/internal/cluster"
	"collabscore/internal/prefgen"
	"collabscore/internal/xrand"
)

// Spec declares a scenario grid as per-axis value lists. Expand takes the
// cross product in a fixed canonical order (players × objects × budgets ×
// plantings × diameters × dishonest × strategies × protocols × trials).
// Empty axes get the documented defaults. The struct is plain JSON, which
// is how cmd/sweep accepts grid files.
type Spec struct {
	// Name labels the sweep in logs and summaries (optional).
	Name string `json:"name,omitempty"`
	// Seed is the root seed every point seed is split from.
	Seed uint64 `json:"seed"`
	// Trials is the number of independent repetitions per coordinate
	// (distinct instances); default 1.
	Trials int `json:"trials,omitempty"`

	// Players is the player-count axis (required, values ≥ 1).
	Players []int `json:"players"`
	// Objects is the object-count axis; 0 (the default) means
	// objects = players.
	Objects []int `json:"objects,omitempty"`
	// Budgets is the budget axis; 0 (the default) means B = 8.
	Budgets []int `json:"budgets,omitempty"`

	// ClusterSizes plants diameter-bounded clusters of each listed size.
	ClusterSizes []int `json:"cluster_sizes,omitempty"`
	// ZipfClusters/ZipfAlphas plant Zipf-sized cluster populations: one
	// planting per (count, alpha) pair. ZipfAlphas defaults to [1.1] when
	// ZipfClusters is set.
	ZipfClusters []int     `json:"zipf_clusters,omitempty"`
	ZipfAlphas   []float64 `json:"zipf_alphas,omitempty"`
	// Diameters is the planted-diameter axis; default [0]. For the uniform
	// planting (no ClusterSizes/ZipfClusters) diameters are meaningless and
	// the axis collapses to a single 0 unless FixDiameter is set.
	Diameters []int `json:"diameters,omitempty"`
	// FixDiameter sets each point's Config.FixedDiameter to its planted
	// diameter, restricting the doubling loop to the single correct guess
	// (the standard experiment configuration).
	FixDiameter bool `json:"fix_diameter,omitempty"`
	// PaperConstants selects the paper's literal constants (DESIGN.md §4).
	PaperConstants bool `json:"paper_constants,omitempty"`

	// Dishonest is the corruption-count axis; default [0].
	Dishonest []int `json:"dishonest,omitempty"`
	// Strategies names the dishonest strategies (collabscore.Strategy
	// names); default ["random-liar"]. Honest points (dishonest = 0) are
	// emitted once, not once per strategy. Strategies that have no
	// behavior on a protocol's substrate (rating-only strategies on binary
	// protocols and vice versa, which Scenario.Validate refuses) are
	// skipped deterministically for that protocol's corrupted points.
	Strategies []string `json:"strategies,omitempty"`
	// Protocols names the protocol variants (collabscore.Protocol names);
	// default ["byzantine"].
	Protocols []string `json:"protocols,omitempty"`

	// Scales is the rating-scale axis, applied to "ratings" protocol
	// points only (every other protocol's points collapse to scale 0);
	// 0 entries default to 5. Rating points require a cluster planting —
	// combinations with uniform or Zipf plantings are skipped.
	Scales []int `json:"scales,omitempty"`
	// CapacityTiers is the capacity-tier axis, applied to "budgets"
	// protocol points only. An empty axis yields the scenario's default
	// tier; the zero tier means "scenario defaults" (m/32, m/2, 0.25).
	CapacityTiers []CapTier `json:"capacity_tiers,omitempty"`
	// NeighborIndexes is the neighbor-discovery axis ("exact", "lsh", or
	// "lsh:BANDS:ROWS", each optionally suffixed "+dense"/"+sparse"/
	// "+auto" to pick the graph representation — cluster.ParseIndexSpec
	// forms), applied to the clustering protocols (run, byzantine,
	// budgets) only; the baselines and ratings points never build a
	// neighbor graph and collapse to the exact default. Like CapacityTiers
	// it is not instance-defining: points differing only in the index
	// share a seed and a planted world (paired comparisons — the
	// representation cannot even change the clustering, only its memory),
	// and the exact+auto default keeps every existing key, seed, and JSONL
	// record unchanged.
	NeighborIndexes []string `json:"neighbor_indexes,omitempty"`
	// TruthSources is the truth-representation axis ("dense" or "lazy" —
	// the prefgen.ParseSourceSpec forms; see DESIGN.md §14).
	// The representation is observationally invisible — every source yields
	// byte-identical reports — so like NeighborIndexes it is not
	// instance-defining: points differing only in the source share a seed
	// and a planted world (paired comparisons), and the dense default keeps
	// every existing key, seed, and JSONL record unchanged.
	TruthSources []string `json:"truth_sources,omitempty"`
}

// CapTier is one capacity-tier axis value: the §8 heterogeneous-budget
// two-tier capacity mix (a BigFrac fraction of players volunteer Big
// probes, the rest Small).
type CapTier struct {
	Small   int     `json:"small,omitempty"`
	Big     int     `json:"big,omitempty"`
	BigFrac float64 `json:"big_frac,omitempty"`
}

// IsZero reports whether the tier is the scenario-defaults tier.
func (ct CapTier) IsZero() bool { return ct == CapTier{} }

func (ct CapTier) String() string {
	if ct.IsZero() {
		return "default"
	}
	return fmt.Sprintf("%d:%d:%g", ct.Small, ct.Big, ct.BigFrac)
}

// ParseCapTier parses the "small:big:frac" form used by cmd/sweep's
// -captiers flag ("default" or "" yields the zero tier). Parsing is
// strict: trailing garbage, extra fields, and non-finite or out-of-range
// fractions are rejected rather than silently running a wrong experiment.
func ParseCapTier(s string) (CapTier, error) {
	if s == "" || s == "default" {
		return CapTier{}, nil
	}
	bad := func() (CapTier, error) {
		return CapTier{}, fmt.Errorf("sweep: bad capacity tier %q (want small:big:frac with 0 ≤ frac ≤ 1)", s)
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return bad()
	}
	small, err1 := strconv.Atoi(parts[0])
	big, err2 := strconv.Atoi(parts[1])
	frac, err3 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil || err3 != nil ||
		small < 0 || big < 0 || !(frac >= 0 && frac <= 1) {
		return bad()
	}
	return CapTier{Small: small, Big: big, BigFrac: frac}, nil
}

// Plant identifies a planting-axis value.
type Plant struct {
	// Kind is "uniform", "cluster", or "zipf".
	Kind string `json:"kind"`
	// ClusterSize is set for Kind "cluster".
	ClusterSize int `json:"cluster_size,omitempty"`
	// ZipfClusters/ZipfAlpha are set for Kind "zipf".
	ZipfClusters int     `json:"zipf_clusters,omitempty"`
	ZipfAlpha    float64 `json:"zipf_alpha,omitempty"`
}

func (pl Plant) String() string {
	switch pl.Kind {
	case "cluster":
		return fmt.Sprintf("cluster/%d", pl.ClusterSize)
	case "zipf":
		return fmt.Sprintf("zipf/%d/%g", pl.ZipfClusters, pl.ZipfAlpha)
	default:
		return "uniform"
	}
}

// Point is one fully resolved grid point: the coordinates, the derived
// seed, and nothing else — running a Point is running its Scenario.
type Point struct {
	// Index is the point's position in the expanded grid (set by Expand,
	// re-set by Merge).
	Index int `json:"-"`

	Players int `json:"n"`
	// Objects is resolved (never 0).
	Objects int   `json:"m"`
	Budget  int   `json:"b"`
	Plant   Plant `json:"plant"`
	// Diameter is the planted diameter (0 for uniform plantings).
	Diameter  int    `json:"d"`
	Dishonest int    `json:"f,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	Protocol  string `json:"protocol"`
	// Scale is the rating scale of "ratings" points (0 elsewhere).
	Scale int `json:"scale,omitempty"`
	// Cap is the capacity tier of "budgets" points (zero elsewhere).
	Cap   CapTier `json:"cap,omitzero"`
	Trial int     `json:"trial"`
	// NeighborIndex is the canonical neighbor-index spec of clustering
	// points ("" means the exact default, so pre-axis records round-trip
	// unchanged; otherwise a cluster.ParseIndexSpec form such as "lsh").
	NeighborIndex string `json:"neighbor_index,omitempty"`
	// TruthSource is the canonical truth-representation spec ("" means the
	// dense default, keeping pre-axis records round-tripping unchanged;
	// otherwise the prefgen.ParseSourceSpec form "lazy").
	TruthSource string `json:"truth,omitempty"`

	FixDiameter    bool `json:"fix_diameter,omitempty"`
	PaperConstants bool `json:"paper_constants,omitempty"`

	// Seed is the point's derived Config seed: a pure function of the
	// instance-defining coordinates (n, m, b, plant, d, trial) and the
	// spec's root seed.
	Seed uint64 `json:"seed"`
}

// Key returns the point's canonical identity string — the resume key. Two
// points with equal keys are the same scenario.
func (pt Point) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d,m=%d,b=%d,plant=%s,d=%d,f=%d", pt.Players, pt.Objects, pt.Budget, pt.Plant, pt.Diameter, pt.Dishonest)
	if pt.Strategy != "" {
		fmt.Fprintf(&sb, ",strat=%s", pt.Strategy)
	}
	if pt.Scale > 0 {
		fmt.Fprintf(&sb, ",scale=%d", pt.Scale)
	}
	if !pt.Cap.IsZero() {
		fmt.Fprintf(&sb, ",cap=%s", pt.Cap)
	}
	if pt.NeighborIndex != "" {
		fmt.Fprintf(&sb, ",nidx=%s", pt.NeighborIndex)
	}
	if pt.TruthSource != "" {
		fmt.Fprintf(&sb, ",truth=%s", pt.TruthSource)
	}
	fmt.Fprintf(&sb, ",proto=%s,trial=%d", pt.Protocol, pt.Trial)
	if pt.FixDiameter {
		sb.WriteString(",fixd")
	}
	if pt.PaperConstants {
		sb.WriteString(",paper")
	}
	return sb.String()
}

// Scenario converts the point to its collabscore scenario. It returns an
// error for unknown planting, strategy or protocol names and for a
// scenario that Scenario.Validate refuses (Expand never produces those,
// but points can also arrive from JSONL files).
func (pt Point) Scenario() (collabscore.Scenario, error) {
	sc := collabscore.Scenario{
		Config: collabscore.Config{
			Players:        pt.Players,
			Objects:        pt.Objects,
			Budget:         pt.Budget,
			Seed:           pt.Seed,
			PaperConstants: pt.PaperConstants,
			NeighborIndex:  pt.NeighborIndex,
			TruthSource:    pt.TruthSource,
		},
		Diameter:   pt.Diameter,
		Scale:      pt.Scale,
		CapSmall:   pt.Cap.Small,
		CapBig:     pt.Cap.Big,
		CapBigFrac: pt.Cap.BigFrac,
	}
	if pt.FixDiameter {
		sc.Config.FixedDiameter = pt.Diameter
	}
	switch pt.Plant.Kind {
	case "uniform":
	case "cluster":
		sc.ClusterSize = pt.Plant.ClusterSize
	case "zipf":
		sc.ZipfClusters = pt.Plant.ZipfClusters
		sc.ZipfAlpha = pt.Plant.ZipfAlpha
	default:
		return sc, fmt.Errorf("sweep: unknown planting kind %q", pt.Plant.Kind)
	}
	var err error
	if pt.Dishonest > 0 {
		if sc.Strategy, err = collabscore.ParseStrategy(pt.Strategy); err != nil {
			return sc, err
		}
		sc.Dishonest = pt.Dishonest
	}
	if sc.Protocol, err = collabscore.ParseProtocol(pt.Protocol); err != nil {
		return sc, err
	}
	// Points from JSONL files can hold anything; refuse here what the
	// scenario would panic on later.
	return sc, sc.Validate()
}

// plantCode numbers planting kinds for seed-split tags.
func plantCode(kind string) uint64 {
	switch kind {
	case "cluster":
		return 1
	case "zipf":
		return 2
	default:
		return 0
	}
}

// pointSeed derives the point's Config seed from the instance-defining
// coordinates only: points differing in dishonest/strategy/protocol,
// capacity tier, or neighbor index share a seed (and therefore a world) by
// design — paired comparisons. The rating scale IS instance-defining (it changes the
// planted truth matrix), so it joins the split tags — but only when
// nonzero, which keeps every pre-existing binary point's seed unchanged.
func pointSeed(root *xrand.Stream, pt *Point) uint64 {
	tags := []uint64{
		uint64(pt.Players), uint64(pt.Objects), uint64(pt.Budget),
		plantCode(pt.Plant.Kind), uint64(pt.Plant.ClusterSize), uint64(pt.Plant.ZipfClusters),
		math.Float64bits(pt.Plant.ZipfAlpha), uint64(pt.Diameter), uint64(pt.Trial),
	}
	if pt.Scale > 0 {
		tags = append(tags, 0x5CA1E, uint64(pt.Scale))
	}
	s := root.SplitValue(tags...)
	return s.Uint64()
}

// plantings resolves the spec's planting axis.
func (sp Spec) plantings() []Plant {
	var out []Plant
	for _, cs := range sp.ClusterSizes {
		out = append(out, Plant{Kind: "cluster", ClusterSize: cs})
	}
	alphas := sp.ZipfAlphas
	if len(alphas) == 0 {
		alphas = []float64{1.1}
	}
	alphas = uniq(alphas)
	for _, zc := range sp.ZipfClusters {
		for _, a := range alphas {
			out = append(out, Plant{Kind: "zipf", ZipfClusters: zc, ZipfAlpha: a})
		}
	}
	if len(out) == 0 {
		out = []Plant{{Kind: "uniform"}}
	}
	return uniq(out)
}

// resolveInts maps each zero entry of xs to def (the axis default), leaving
// other values untouched.
func resolveInts(xs []int, def int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		if x == 0 {
			x = def
		}
		out[i] = x
	}
	return out
}

func defInts(xs []int, def int) []int {
	if len(xs) == 0 {
		return []int{def}
	}
	return xs
}

func defStrs(xs []string, def string) []string {
	if len(xs) == 0 {
		return []string{def}
	}
	return xs
}

// uniq returns xs with duplicates removed, preserving first-seen order.
// Axis values are deduplicated after default resolution so that e.g.
// Budgets [0, 8] (both meaning B = 8) yields one budget, not two identical
// grid slices. The quadratic scan is fine at axis-list sizes.
func uniq[T comparable](xs []T) []T {
	out := xs[:0:0]
	for _, x := range xs {
		dup := false
		for _, y := range out {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// Expand validates the spec and returns its grid points in canonical order
// with derived seeds. Combinations that cannot be instantiated are skipped
// deterministically rather than erroring, so axes can mix scales freely:
//
//   - cluster size > players (prefgen cannot plant it);
//   - dishonest > players (cannot corrupt more players than exist);
//   - points whose scenario collabscore.Scenario.Validate refuses (a
//     rating point without a cluster planting, a strategy with no behavior
//     on the protocol's substrate).
//
// Two normalizations prevent semantic duplicates: honest points
// (dishonest = 0) are emitted for the first strategy only, with the
// strategy name cleared; and for the uniform planting without FixDiameter
// the diameter axis collapses to the single value 0 (the diameter would
// otherwise be dead weight in the key).
func Expand(sp Spec) ([]Point, error) {
	if len(sp.Players) == 0 {
		return nil, fmt.Errorf("sweep: spec needs at least one players value")
	}
	for _, n := range sp.Players {
		if n < 1 {
			return nil, fmt.Errorf("sweep: players value %d must be ≥ 1", n)
		}
	}
	for _, m := range sp.Objects {
		if m < 0 {
			return nil, fmt.Errorf("sweep: objects value %d must be ≥ 0", m)
		}
	}
	for _, b := range sp.Budgets {
		if b < 0 {
			return nil, fmt.Errorf("sweep: budget value %d must be ≥ 0", b)
		}
	}
	for _, cs := range sp.ClusterSizes {
		if cs < 1 {
			return nil, fmt.Errorf("sweep: cluster size %d must be ≥ 1", cs)
		}
	}
	for _, zc := range sp.ZipfClusters {
		if zc < 1 {
			return nil, fmt.Errorf("sweep: zipf cluster count %d must be ≥ 1", zc)
		}
	}
	for _, a := range sp.ZipfAlphas {
		if !(a > 0) {
			return nil, fmt.Errorf("sweep: zipf alpha %g must be > 0", a)
		}
	}
	for _, d := range sp.Diameters {
		if d < 0 {
			return nil, fmt.Errorf("sweep: diameter %d must be ≥ 0", d)
		}
	}
	for _, f := range sp.Dishonest {
		if f < 0 {
			return nil, fmt.Errorf("sweep: dishonest count %d must be ≥ 0", f)
		}
	}
	for _, sc := range sp.Scales {
		if sc < 0 {
			return nil, fmt.Errorf("sweep: rating scale %d must be ≥ 0", sc)
		}
	}
	for _, ct := range sp.CapacityTiers {
		// The negated form rejects NaN fractions too (NaN fails ≥).
		if ct.Small < 0 || ct.Big < 0 || !(ct.BigFrac >= 0 && ct.BigFrac <= 1) {
			return nil, fmt.Errorf("sweep: bad capacity tier %s", ct)
		}
	}
	// Canonicalize the neighbor-index axis up front: every entry must
	// parse, and the exact default becomes "" so that default points keep
	// their historical keys.
	nidxes := []string{""}
	if len(sp.NeighborIndexes) > 0 {
		nidxes = nidxes[:0]
		for _, s := range sp.NeighborIndexes {
			spec, err := cluster.ParseIndexSpec(s)
			if err != nil {
				return nil, fmt.Errorf("sweep: %v", err)
			}
			// Only the full default (exact discovery AND auto
			// representation — the zero spec) collapses to "": a forced
			// representation like "exact+sparse" is a distinct point, and
			// IsExact alone would wrongly erase it.
			if spec == (cluster.IndexSpec{}) {
				nidxes = append(nidxes, "")
			} else {
				nidxes = append(nidxes, spec.String())
			}
		}
		nidxes = uniq(nidxes)
	}
	// Same treatment for the truth-representation axis: every entry must
	// parse, and the dense default becomes "" so default points keep their
	// historical keys.
	truths := []string{""}
	if len(sp.TruthSources) > 0 {
		truths = truths[:0]
		for _, s := range sp.TruthSources {
			spec, err := prefgen.ParseSourceSpec(s)
			if err != nil {
				return nil, fmt.Errorf("sweep: %v", err)
			}
			if spec.IsDense() {
				truths = append(truths, "")
			} else {
				truths = append(truths, spec.String())
			}
		}
		truths = uniq(truths)
	}
	strategies := defStrs(sp.Strategies, collabscore.RandomLiar.String())
	for _, s := range strategies {
		if _, err := collabscore.ParseStrategy(s); err != nil {
			return nil, err
		}
	}
	protocols := defStrs(sp.Protocols, collabscore.ProtoByzantine.String())
	for _, p := range protocols {
		if _, err := collabscore.ParseProtocol(p); err != nil {
			return nil, err
		}
	}
	trials := sp.Trials
	if trials <= 0 {
		trials = 1
	}

	players := uniq(sp.Players)
	objects := defInts(sp.Objects, 0)
	budgets := uniq(resolveInts(defInts(sp.Budgets, 0), 8))
	diameters := uniq(defInts(sp.Diameters, 0))
	dishonest := uniq(defInts(sp.Dishonest, 0))
	strategies = uniq(strategies)
	protocols = uniq(protocols)
	scales := uniq(resolveInts(defInts(sp.Scales, 0), 5))
	tiers := sp.CapacityTiers
	if len(tiers) == 0 {
		tiers = []CapTier{{}}
	}
	tiers = uniq(tiers)
	plants := sp.plantings()
	ratingsName := collabscore.ProtoRatings.String()
	budgetsName := collabscore.ProtoBudgets.String()
	clusteringProto := map[string]bool{
		collabscore.ProtoRun.String():       true,
		collabscore.ProtoByzantine.String(): true,
		budgetsName:                         true,
	}
	root := xrand.New(sp.Seed)

	var out []Point
	for _, n := range players {
		for _, m := range uniq(resolveInts(objects, n)) {
			for _, b := range budgets {
				for _, plant := range plants {
					if plant.Kind == "cluster" && plant.ClusterSize > n {
						continue
					}
					ds := diameters
					if plant.Kind == "uniform" && !sp.FixDiameter {
						ds = []int{0}
					}
					for _, d := range ds {
						for _, f := range dishonest {
							if f > n {
								continue
							}
							strats := strategies
							if f == 0 {
								strats = strategies[:1]
							}
							for _, strat := range strats {
								for _, proto := range protocols {
									// The scale axis applies to rating points,
									// the capacity-tier axis to budgets points;
									// each collapses to its zero value
									// elsewhere, as does the neighbor-index
									// axis on the non-clustering protocols.
									// The truth-source axis applies to every
									// protocol: all substrates carry both
									// representations.
									protoScales := []int{0}
									protoTiers := []CapTier{{}}
									protoNidx := []string{""}
									if proto == ratingsName {
										protoScales = scales
									}
									if proto == budgetsName {
										protoTiers = tiers
									}
									if clusteringProto[proto] {
										protoNidx = nidxes
									}
									for _, scale := range protoScales {
										for _, tier := range protoTiers {
											for _, nidx := range protoNidx {
												for _, truth := range truths {
													for trial := 0; trial < trials; trial++ {
														pt := Point{
															Index:          len(out),
															Players:        n,
															Objects:        m,
															Budget:         b,
															Plant:          plant,
															Diameter:       d,
															Dishonest:      f,
															Strategy:       strat,
															Protocol:       proto,
															Scale:          scale,
															Cap:            tier,
															Trial:          trial,
															NeighborIndex:  nidx,
															TruthSource:    truth,
															FixDiameter:    sp.FixDiameter,
															PaperConstants: sp.PaperConstants,
														}
														if f == 0 {
															pt.Strategy = ""
														}
														// Combinations the scenario
														// refuses (a rating point
														// without a cluster planting, a
														// strategy with no behavior on
														// the protocol's substrate) are
														// skipped.
														if _, err := pt.Scenario(); err != nil {
															continue
														}
														pt.Seed = pointSeed(root, &pt)
														out = append(out, pt)
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Merge concatenates point lists from several Expand calls into one grid,
// reassigning contiguous indices. It returns an error on duplicate keys —
// merged specs must describe disjoint grids.
func Merge(lists ...[]Point) ([]Point, error) {
	var out []Point
	seen := make(map[string]struct{})
	for _, list := range lists {
		for _, pt := range list {
			k := pt.Key()
			if _, dup := seen[k]; dup {
				return nil, fmt.Errorf("sweep: duplicate point %s across merged specs", k)
			}
			seen[k] = struct{}{}
			pt.Index = len(out)
			out = append(out, pt)
		}
	}
	return out, nil
}
