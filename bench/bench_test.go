package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"collabscore"
)

// replayCases are small scenarios covering both replays, both neighbor
// indexes and graph representations, both truth sources, honest and
// corrupted worlds, and both branches of an iteration: D = 32 samples
// objects, D = 16 is below 3·ln n and runs SmallRadius on every object.
func replayCases() []collabscore.Scenario {
	var out []collabscore.Scenario
	for _, dishonest := range []int{0, 21} {
		for _, nidx := range []string{"", "lsh+sparse"} {
			for _, truth := range []string{"", "lazy"} {
				for _, d := range []int{32, 16} {
					sc := collabscore.Scenario{
						Config:      collabscore.Config{Players: 512, Seed: 7, FixedDiameter: d, NeighborIndex: nidx, TruthSource: truth},
						ClusterSize: 64, Diameter: d, Protocol: collabscore.ProtoRun,
					}
					if dishonest > 0 {
						sc.Dishonest, sc.Strategy = dishonest, collabscore.ClusterHijackers
					}
					out = append(out, sc)
				}
			}
		}
	}
	byz := out[len(out)-8] // hijackers, exact index, dense truth, D = 32
	byz.Protocol = collabscore.ProtoByzantine
	ratings := byz
	ratings.Protocol, ratings.Strategy = collabscore.ProtoRatings, collabscore.Exaggerators
	return append(out, byz, ratings)
}

func name(sc collabscore.Scenario) string {
	return fmt.Sprintf("%v/f=%d/nidx=%q/truth=%q/D=%d", sc.Protocol, sc.Dishonest, sc.NeighborIndex, sc.TruthSource, sc.Diameter)
}

// TestReplayMatchesCore pins the traced replay to the real runners: same
// outputs, error and total probes, byte for byte.
func TestReplayMatchesCore(t *testing.T) {
	for _, sc := range replayCases() {
		t.Run(name(sc), func(t *testing.T) {
			p := prepare(sc)
			want, _ := p.run()
			got, _, err := p.replay(newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if got.digest != want.digest || got.totalProbes != want.totalProbes || got.maxError != want.maxError {
				t.Fatalf("replay differs: max error %d vs %d, total probes %d vs %d", got.maxError, want.maxError, got.totalProbes, want.totalProbes)
			}
		})
	}
}

// TestByzantineReplayCoversDishonestLeaders checks the replay against
// RunByzantine on a seed whose elections pick a dishonest leader, so the
// adversarial branch and the cross-repetition RSelect over mixed candidates
// are pinned too.
func TestByzantineReplayCoversDishonestLeaders(t *testing.T) {
	sc := replayCases()[len(replayCases())-2]
	for seed := uint64(1); seed <= maxDraws; seed++ {
		sc.Seed = seed
		p := prepare(sc)
		if p.honestLeaders() == 5 {
			continue
		}
		want, _ := p.run()
		got, _, err := p.replay(newTracer())
		if err != nil {
			t.Fatal(err)
		}
		if got.digest != want.digest {
			t.Fatalf("seed %d: replay differs from RunByzantine", seed)
		}
		return
	}
	t.Fatalf("no seed up to %d elects a dishonest leader", maxDraws)
}

// TestSpanProbesSumToTotal checks that every probe a replay charges is
// charged inside a layer span, so per-layer probe counts add up exactly to
// the run's total.
func TestSpanProbesSumToTotal(t *testing.T) {
	for _, sc := range replayCases() {
		t.Run(name(sc), func(t *testing.T) {
			p := prepare(sc)
			tr := newTracer()
			got, _, err := p.replay(tr)
			if err != nil {
				t.Fatal(err)
			}
			layer, glue := layerProbes(tr.layers(0))
			if layer != got.totalProbes || glue != 0 {
				t.Fatalf("layer spans charged %d probes and glue %d, the run %d", layer, glue, got.totalProbes)
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "x", Unit: "1/s", Better: "higher", Bound: 0.1}
	probes := metricDef{Name: "max_probes", Unit: "probes", Better: "lower", Bound: 0.15}
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.02, 9.98, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	for _, tc := range []struct {
		name     string
		m        metricDef
		old, new []float64
		want     string
	}{
		{"same runs", lower, steady, steady, withinBound},
		{"slower within bound", lower, steady, scale(steady, 1.05), withinBound},
		{"slower past bound", lower, steady, scale(steady, 1.2), worse},
		{"faster past spread", lower, steady, scale(steady, 0.9), better},
		{"faster within spread", lower, steady, scale(steady, 0.999), withinBound},
		{"higher is better", higher, steady, scale(steady, 0.8), worse},
		{"higher gain", higher, steady, scale(steady, 1.2), better},
		{"noisy old", lower, noisy, scale(noisy, 0.95), unresolved},
		{"noisy old, every new run faster", lower, noisy, scale(steady, 0.5), better},
		{"noisy old, every new run slower", lower, noisy, scale(steady, 2), unresolved},
		{"exact count unchanged", probes, []float64{512, 498}, []float64{512, 498}, withinBound},
		{"exact count grew in one run", probes, []float64{512, 498}, []float64{512, 499}, worse},
		{"exact count fell in one run", probes, []float64{512, 498}, []float64{512, 497}, better},
		{"exact count traded between runs", probes, []float64{512, 498}, []float64{511, 499}, worse},
	} {
		if got := verdict(tc.m, tc.old, tc.new); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareFilesGatesCorrectness checks that -compare finds a new file
// worse when one of its runs failed a check, even with every metric
// unchanged, and refuses files that ran different seeds.
func TestCompareFilesGatesCorrectness(t *testing.T) {
	dir := t.TempDir()
	write := func(file string, seeds []uint64, failed int) string {
		wr := &workloadRuns{Metrics: make(map[string]*metricRuns)}
		for i := range seeds {
			f := 0
			if i == 0 {
				f = failed // the first run alone fails
			}
			wr.Correct = append(wr.Correct, f == 0)
			wr.Attempted = append(wr.Attempted, 10)
			wr.Failed = append(wr.Failed, f)
		}
		for _, m := range endToEnd {
			mr := &metricRuns{Unit: m.Unit}
			for range seeds {
				mr.Values = append(mr.Values, 1)
			}
			wr.Metrics[m.Name] = mr
		}
		b, err := json.Marshal(collection{Seeds: seeds, Workloads: map[string]*workloadRuns{workloads[0].name: wr}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	seeds := []uint64{1, 2, 3}
	good, bad := write("good.json", seeds, 0), write("bad.json", seeds, 2)
	for _, tc := range []struct {
		old, new string
		worse    bool
	}{{good, good, false}, {good, bad, true}, {bad, good, false}} {
		var out strings.Builder
		got, err := compareFiles(&out, tc.old, tc.new)
		if err != nil || got != tc.worse {
			t.Errorf("compare %s %s: worse %v, %v, want %v\n%s", filepath.Base(tc.old), filepath.Base(tc.new), got, err, tc.worse, out.String())
		}
	}
	if _, err := compareFiles(io.Discard, good, write("other.json", []uint64{1, 2, 4}, 0)); err == nil {
		t.Error("compare accepted files that ran different seeds")
	}
}

// small shrinks a workload to n ≤ 512 so every code path runs in seconds.
func small(w workload) workload {
	if w.scen != nil {
		s := *w.scen
		s.n, s.count = 512, 1
		w.scen = &s
	} else {
		w.grid = &gridSpec{players: []int{256}, trials: 1}
	}
	return w
}

// TestWorkloadsSmoke runs every workload's end-to-end and traced paths on
// small inputs and checks that each reports every metric, correctly.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := small(w)
		t.Run(w.name, func(t *testing.T) {
			res, problems, err := runEndToEnd(w, 1, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(problems) > 0 {
				t.Fatalf("end-to-end run failed checks: %v", problems)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
					t.Errorf("metric %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			tr := newTracer()
			res, problems, err = runTraced(w, 1, 0.01, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || len(problems) > 0 {
				t.Fatalf("traced run failed checks: %v", problems)
			}
			for _, m := range perLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("traced run lacks %s", m.Name)
				}
			}
			if c := res.Metrics["trace.coverage"].Value; c < 0.9 {
				t.Errorf("trace coverage %.3f", c)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which describes the benchmark to
// tools outside it, in step with the workloads and metrics defined here.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end metrics differ:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer metrics differ:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
}
