package collabscore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// goldenCase is one fixed scenario of the cross-version pin, with the
// digest its report must hash to.
type goldenCase struct {
	name string
	sc   Scenario
	// minD/maxD, when set, restrict the diameter guesses through the
	// simulation's parameters (Build/Execute, or the rating parameters)
	// instead of FixedDiameter.
	minD, maxD int
	// trusted runs a rating case with trusted shared coins
	// (RatingSimulation.Run) instead of the Byzantine wrapper.
	trusted bool
	want    string
}

// goldenCases covers every production clustering and selection path at
// n = 256: the honest protocol over the exact dense and the LSH sparse
// lazy-truth configurations, the Byzantine wrapper under cluster hijackers,
// the capacity peel and weighted board share over several diameter guesses
// (so RSelect chooses among them), the Byzantine rating protocol, the
// honest binary and rating protocols over several diameter guesses (so
// RSelect and the L1 spot check choose across guesses), and the AASP
// baseline at an off-ladder fixed diameter.
func goldenCases() []goldenCase {
	const n = 256
	return []goldenCase{
		{
			name: "run/exact+dense",
			sc:   Scenario{Config: Config{Players: n, Seed: 101, FixedDiameter: 16}, ClusterSize: 32, Diameter: 16},
			want: "00b03d56415ae5470f5f05ba8d025b573e2320f0ba88cb1a3d598ddcfd3edab0",
		},
		{
			name: "run/lsh+sparse+lazy",
			sc: Scenario{Config: Config{Players: n, Seed: 102, FixedDiameter: 16, NeighborIndex: "lsh+sparse", TruthSource: "lazy"},
				ClusterSize: 32, Diameter: 16},
			want: "d0d9decec4b0d2cbe1b622e7a3d20c8bdab6b01a6d05c121576050c1f6c18d73",
		},
		{
			name: "byzantine/hijackers",
			sc: Scenario{Config: Config{Players: n, Seed: 103, FixedDiameter: 16}, ClusterSize: 32, Diameter: 16,
				Dishonest: n / 24, Strategy: ClusterHijackers, Protocol: ProtoByzantine},
			want: "7250bda4be667439eb6262f42f06ed9bcb5aa5e934e0648810bbb658cad648a6",
		},
		{
			name: "budgets/two-tier",
			sc: Scenario{Config: Config{Players: n, Seed: 104}, ClusterSize: 32, Diameter: 16,
				Protocol: ProtoBudgets, CapSmall: 32, CapBig: 256, CapBigFrac: 0.5},
			minD: 8, maxD: 32,
			want: "4bedcd3858d260682956362f5bc3d7476f157a81e2a70ce57fd10234031b39d4",
		},
		{
			name: "ratings/exaggerators",
			sc: Scenario{Config: Config{Players: n, Seed: 105, FixedDiameter: 16}, ClusterSize: 32, Diameter: 16,
				Scale: 5, Dishonest: n / 24, Strategy: Exaggerators, Protocol: ProtoRatings},
			want: "4b71c5e8c6e0c43849d30d379cb34b7faf60eb3d271019b96ec99dff7025bd2d",
		},
		{
			name: "run/multi-guess",
			sc:   Scenario{Config: Config{Players: n, Seed: 106}, ClusterSize: 32, Diameter: 16},
			minD: 8, maxD: 64,
			want: "236899c9272e543295b0cfe768c6b4ea8cea6b024bf8ae09b53f20be6219d190",
		},
		{
			name: "ratings/trusted-multi-guess",
			sc: Scenario{Config: Config{Players: n, Seed: 107}, ClusterSize: 32, Diameter: 16,
				Scale: 5, Protocol: ProtoRatings},
			minD: 8, maxD: 64, trusted: true,
			want: "c64625e44e6c2d2e6cbf5500339e68a5eed5b584e82b8ab826ac040c83959374",
		},
		{
			name: "baseline/off-ladder",
			sc: Scenario{Config: Config{Players: n, Seed: 108, FixedDiameter: 24}, ClusterSize: 32, Diameter: 24,
				Protocol: ProtoBaseline},
			want: "0dd3c1a5bbb3b83e4754489fcf00fefa8488076b124c6c70d2cce6c05561bc38",
		},
	}
}

// goldenDigest runs the case and returns the hex SHA-256 of its outputs,
// MaxError, TotalProbes and MaxProbes.
func goldenDigest(c goldenCase) string {
	h := sha256.New()
	put := func(v int64) { binary.Write(h, binary.LittleEndian, v) }
	var maxErr, total, maxProbes int64
	if c.sc.Protocol == ProtoRatings {
		// Scenario.Run's Report carries no rating rows; hash them from the
		// fluent rating report of the same world.
		rs := c.sc.ratingSimulation()
		if c.minD > 0 {
			rs.Params().MinD, rs.Params().MaxD = c.minD, c.maxD
		}
		var rr *RatingReport
		if c.trusted {
			rr = rs.Run()
		} else {
			rr = rs.RunByzantine(0)
		}
		for _, row := range rr.Outputs {
			for _, v := range row {
				put(int64(v))
			}
		}
		maxErr, total, maxProbes = int64(rr.MaxL1Error), rr.TotalProbes, int64(rr.MaxProbes)
	} else {
		sim := c.sc.Build(nil)
		if c.minD > 0 {
			sim.Params().MinD, sim.Params().MaxD = c.minD, c.maxD
		}
		rep := c.sc.Execute(sim)
		for _, v := range rep.Outputs {
			for wi := 0; wi < v.Words(); wi++ {
				put(int64(v.Word(wi)))
			}
		}
		maxErr, total, maxProbes = int64(rep.MaxError), rep.TotalProbes, rep.MaxProbes
	}
	put(maxErr)
	put(total)
	put(maxProbes)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins fixed-seed reports to digests recorded once and
// committed: unlike the byte-identity pins, which compare two
// implementations inside one version of the code, it fails when the
// surviving implementation itself drifts between versions. A deliberate
// output change must re-record the digests and say so in its change notes.
func TestGoldenDigests(t *testing.T) {
	for _, c := range goldenCases() {
		if got := goldenDigest(c); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
