package prefgen

import (
	"testing"

	"collabscore/internal/cluster"
	"collabscore/internal/xrand"
)

// maxPlantedDiameter returns the largest exact pairwise Hamming diameter
// of any planted cluster of in.
func maxPlantedDiameter(in *Instance) int {
	mx := 0
	for c := range in.Centers {
		mx = max(mx, cluster.Diameter(in.Truth, in.ClusterMembers(c)))
	}
	return mx
}

func TestUniformShape(t *testing.T) {
	in := Uniform(xrand.New(1), 50, 80)
	if in.N() != 50 || in.M() != 80 {
		t.Fatalf("dims = (%d,%d)", in.N(), in.M())
	}
	for p, c := range in.ClusterOf {
		if c != -1 {
			t.Fatalf("uniform player %d has cluster %d", p, c)
		}
	}
	// Vectors should not all be identical.
	same := true
	for p := 1; p < in.N(); p++ {
		if !in.Truth[p].Equal(in.Truth[0]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("uniform generator produced identical vectors")
	}
}

func TestIdenticalClustersZeroDiameter(t *testing.T) {
	in := IdenticalClusters(xrand.New(2), 64, 100, 16)
	if got := maxPlantedDiameter(in); got != 0 {
		t.Fatalf("identical clusters have diameter %d", got)
	}
	if in.PlantedDiameter != 0 {
		t.Fatalf("PlantedDiameter = %d, want 0", in.PlantedDiameter)
	}
	// Every cluster has exactly the declared size.
	for c := range in.Centers {
		if got := len(in.ClusterMembers(c)); got != 16 {
			t.Fatalf("cluster %d has %d members, want 16", c, got)
		}
	}
}

func TestDiameterClustersBound(t *testing.T) {
	const d = 10
	in := DiameterClusters(xrand.New(3), 60, 200, 20, d)
	if got := maxPlantedDiameter(in); got > d {
		t.Fatalf("planted diameter %d exceeds bound %d", got, d)
	}
	// All players assigned.
	for p, c := range in.ClusterOf {
		if c < 0 || c >= len(in.Centers) {
			t.Fatalf("player %d has invalid cluster %d", p, c)
		}
	}
}

func TestDiameterClustersMembersNearCenter(t *testing.T) {
	const d = 8
	in := DiameterClusters(xrand.New(4), 40, 150, 10, d)
	for p := 0; p < in.N(); p++ {
		c := in.ClusterOf[p]
		if dist := in.Truth[p].Hamming(in.Centers[c]); dist > d/2 {
			t.Fatalf("player %d at distance %d from center, want ≤ %d", p, dist, d/2)
		}
	}
}

func TestDiameterClustersRemainder(t *testing.T) {
	// 50 players, cluster size 15 → 3 clusters; remainder joins the last.
	in := DiameterClusters(xrand.New(5), 50, 60, 15, 0)
	if len(in.Centers) != 3 {
		t.Fatalf("expected 3 clusters, got %d", len(in.Centers))
	}
	total := 0
	for c := range in.Centers {
		total += len(in.ClusterMembers(c))
	}
	if total != 50 {
		t.Fatalf("players assigned: %d, want 50", total)
	}
}

func TestDiameterClustersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad cluster size")
		}
	}()
	DiameterClusters(xrand.New(6), 10, 10, 0, 0)
}

func TestZipfClustersSkewAndBound(t *testing.T) {
	const d = 6
	in := ZipfClusters(xrand.New(7), 300, 100, 5, 1.2, d)
	if got := maxPlantedDiameter(in); got > d {
		t.Fatalf("Zipf cluster diameter %d > %d", got, d)
	}
	if len(in.ClusterMembers(0)) <= len(in.ClusterMembers(4)) {
		t.Fatalf("Zipf sizes not skewed: %d vs %d",
			len(in.ClusterMembers(0)), len(in.ClusterMembers(4)))
	}
}

func TestMixtureAssignsEveryone(t *testing.T) {
	in := Mixture(xrand.New(8), 80, 120)
	if len(in.Centers) != 2 {
		t.Fatalf("Mixture centers = %d, want 2", len(in.Centers))
	}
	for p, c := range in.ClusterOf {
		if c != 0 && c != 1 {
			t.Fatalf("player %d cluster = %d", p, c)
		}
	}
}

func TestAdversarialClaim2Structure(t *testing.T) {
	const n, m, b, d = 100, 200, 10, 20
	in, special := AdversarialClaim2(xrand.New(9), n, m, b, d)
	if len(special) != d {
		t.Fatalf("special set size %d, want %d", len(special), d)
	}
	members := in.ClusterMembers(0)
	if len(members) != n/b {
		t.Fatalf("special group size %d, want %d", len(members), n/b)
	}
	specialSet := map[int]bool{}
	for _, o := range special {
		specialSet[o] = true
	}
	// Group members agree with the base vector off the special set.
	base := in.Centers[0]
	for _, p := range members {
		for o := 0; o < m; o++ {
			if !specialSet[o] && in.Truth[p].Get(o) != base.Get(o) {
				t.Fatalf("member %d disagrees with base off special set at %d", p, o)
			}
		}
	}
	// Group diameter is at most 2d (disagreements only inside S... each
	// member differs from base only on S).
	if diam := maxPlantedDiameter(in); diam > 2*d {
		t.Fatalf("group diameter %d > %d", diam, 2*d)
	}
}

func TestAdversarialClaim2Panics(t *testing.T) {
	cases := []func(){
		func() { AdversarialClaim2(xrand.New(1), 100, 100, 10, 30) },  // d ≥ m/4
		func() { AdversarialClaim2(xrand.New(1), 100, 200, 100, 10) }, // group < 2
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBlockStructured(t *testing.T) {
	const n, m, groups, blocks = 120, 240, 4, 6
	in := BlockStructured(xrand.New(10), n, m, groups, blocks, 0.9)
	if in.N() != n || in.M() != m {
		t.Fatal("dims wrong")
	}
	// Same-group players should be substantially closer than cross-group
	// players on average (correlation exists within groups).
	sameTotal, samePairs := 0, 0
	crossTotal, crossPairs := 0, 0
	for p := 0; p < n; p += 7 {
		for q := p + 1; q < n; q += 11 {
			d := in.Truth[p].Hamming(in.Truth[q])
			if in.ClusterOf[p] == in.ClusterOf[q] {
				sameTotal += d
				samePairs++
			} else {
				crossTotal += d
				crossPairs++
			}
		}
	}
	if samePairs == 0 || crossPairs == 0 {
		t.Fatal("sampling produced no pairs")
	}
	same := float64(sameTotal) / float64(samePairs)
	cross := float64(crossTotal) / float64(crossPairs)
	if same >= cross {
		t.Fatalf("same-group mean distance %.1f ≥ cross-group %.1f", same, cross)
	}
}

func TestBlockStructuredZeroCoherenceIsUniform(t *testing.T) {
	in := BlockStructured(xrand.New(11), 40, 200, 4, 4, 0)
	// With no coherence the same-group distance should be ≈ m/2.
	d := in.Truth[0].Hamming(in.Truth[1])
	if d < 60 || d > 140 {
		t.Fatalf("incoherent distance %d, want ≈100", d)
	}
}

func TestBlockStructuredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BlockStructured(xrand.New(1), 10, 10, 0, 2, 0.5)
}

func TestDeterminism(t *testing.T) {
	a := DiameterClusters(xrand.New(42), 30, 50, 10, 4)
	b := DiameterClusters(xrand.New(42), 30, 50, 10, 4)
	for p := 0; p < 30; p++ {
		if !a.Truth[p].Equal(b.Truth[p]) {
			t.Fatal("same seed produced different instances")
		}
		if a.ClusterOf[p] != b.ClusterOf[p] {
			t.Fatal("same seed produced different assignments")
		}
	}
}
