package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// quickCfg is a small configuration so every experiment runs in CI time.
func quickCfg() Config {
	return Config{N: 512, B: 8, Trials: 1, Seed: 99, Quick: true}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("registry has %d experiments, want 13", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("E9"); !ok {
		t.Fatal("ByID(E9) missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("ByID(E99) should miss")
	}
}

// TestE1SkipsDiametersPastQuarterM runs E1 at n = 256, where the largest
// diameter, 64, does not fit the Claim 2 instance (D < m/4): the row is
// skipped and the title names it, instead of the generator panicking.
func TestE1SkipsDiametersPastQuarterM(t *testing.T) {
	e, _ := ByID("E1")
	tb := e.Run(Config{N: 256, B: 8, Trials: 1, Seed: 99})
	var ds []string
	for _, row := range tb.Rows {
		ds = append(ds, row[0])
	}
	if strings.Join(ds, ",") != "16,32" {
		t.Fatalf("E1 at n=256 ran D = %v, want 16,32", ds)
	}
	if !strings.Contains(tb.Title, "skipped D=64") {
		t.Fatalf("E1 title %q does not name the skipped D=64", tb.Title)
	}
}

// TestAllExperimentsProduceTables smoke-runs every experiment at quick
// scale and validates the table shape.
func TestAllExperimentsProduceTables(t *testing.T) {
	cfg := quickCfg()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb := e.Run(cfg)
			if tb == nil {
				t.Fatal("nil table")
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows")
			}
			out := tb.Render()
			if !strings.Contains(out, e.ID) {
				t.Fatalf("table title missing id: %q", tb.Title)
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Fatalf("row width %d != headers %d", len(row), len(tb.Headers))
				}
			}
		})
	}
}

// TestAblationsProduceTables smoke-runs every ablation at quick scale.
func TestAblationsProduceTables(t *testing.T) {
	cfg := quickCfg()
	for _, e := range Ablations() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb := e.Run(cfg)
			if tb == nil || len(tb.Rows) == 0 {
				t.Fatal("empty ablation table")
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Fatalf("row width %d != headers %d", len(row), len(tb.Headers))
				}
			}
		})
	}
	if len(AllWithAblations()) != len(All())+len(Ablations()) {
		t.Fatal("AllWithAblations miscounts")
	}
	if _, ok := ByID("A1"); !ok {
		t.Fatal("ByID(A1) missing")
	}
}

// TestChartFor covers the table→figure conversion for the plot-shaped
// experiments.
func TestChartFor(t *testing.T) {
	cfg := quickCfg()
	for _, id := range []string{"E8", "E9", "E11"} {
		e, _ := ByID(id)
		tb := e.Run(cfg)
		chart, ok := ChartFor(id, tb)
		if !ok {
			t.Fatalf("%s should have a chart", id)
		}
		svg := chart.Render()
		if !strings.Contains(svg, "<svg") || !strings.Contains(svg, "polyline") {
			t.Fatalf("%s chart not rendered", id)
		}
	}
	if _, ok := ChartFor("E1", nil); ok {
		t.Fatal("E1 should not have a chart")
	}
}

// TestE8ApproxRatioBounded asserts the substance of E8 at quick scale: the
// achieved error is a small multiple of the planted optimum.
func TestE8ApproxRatioBounded(t *testing.T) {
	tb := runE8(quickCfg())
	// approx ratio is column 4 (0-based).
	for _, row := range tb.Rows {
		var ratio float64
		if _, err := sscan(row[4], &ratio); err != nil {
			t.Fatalf("unparseable ratio %q", row[4])
		}
		if ratio > 4 {
			t.Fatalf("approx ratio %v too large", ratio)
		}
	}
}

// TestE9ToleranceRow asserts the substance of E9 at quick scale: at exactly
// the tolerance, error stays within 2× the planted diameter.
func TestE9ToleranceRow(t *testing.T) {
	tb := runE9(quickCfg())
	for _, row := range tb.Rows {
		var maxErr float64
		if _, err := sscan(row[3], &maxErr); err != nil {
			t.Fatalf("unparseable err %q", row[3])
		}
		if maxErr > 64 {
			t.Fatalf("strategy %s at tolerance: max err %v > 64", row[0], maxErr)
		}
	}
}

// sscan parses a float cell.
func sscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestE12RowsWithinBound asserts the substance of E12 at the small sizes
// where a planted diameter past the separable one would break clustering:
// every row's max error stays within the bound the row prints.
func TestE12RowsWithinBound(t *testing.T) {
	for _, n := range []int{256, 512} {
		tb := runE12(Config{N: n, B: 8, Trials: 3, Seed: 2010})
		for _, row := range tb.Rows {
			var maxErr, bound float64
			if _, err := sscan(row[2], &maxErr); err != nil {
				t.Fatalf("unparseable err %q", row[2])
			}
			if _, err := sscan(row[3], &bound); err != nil {
				t.Fatalf("unparseable bound %q", row[3])
			}
			if maxErr > bound {
				t.Errorf("-n %d, %s: max err %v > bound %v", n, row[0], maxErr, bound)
			}
		}
	}
}
