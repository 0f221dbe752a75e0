package main

// The traced run: per-layer metrics from spans recorded around calls into
// each internal package, measured in a run of its own so that the
// end-to-end metrics are always measured with tracing off.

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"collabscore"
	"collabscore/internal/bitvec"
	"collabscore/internal/multival"
	"collabscore/internal/prefgen"
	"collabscore/internal/world"
	"collabscore/internal/xrand"

	csmetrics "collabscore/internal/metrics"
)

// sweepProtocols are the protocols of the sweep-mix grid, in report order.
var sweepProtocols = []string{"run", "byzantine", "budgets", "baseline", "ratings"}

// replay re-runs the scenario's protocol through the traced replay, on the
// scenario's own world with its probe memos reset, under one "replay" span,
// and returns its outcome and the span's duration.
func (p *prepared) replay(t *tracer) (outcome, time.Duration, error) {
	o := outcome{key: fmt.Sprintf("seed=%d", p.sc.Seed), diameter: p.sc.Diameter, byzantine: p.byzantine()}
	rng := xrand.New(p.sc.Seed)
	if p.rs != nil {
		w := p.rs.World()
		w.ResetProbes()
		t.probes = w.TotalProbes
		var out []bitvec.Planes
		root := t.span("replay", func() { out = replayRatings(t, w, rng.Split(tagByzantine), ratingReps, *p.rs.Params()) })
		rows := make([][]int, len(out))
		for i, r := range out {
			rows[i] = r.Ints()
		}
		es := multival.ErrorStats(w, out)
		o.digest = ratingDigest(rows, es.Max, w.TotalProbes())
		o.maxError, o.maxProbes, o.totalProbes = es.Max, w.MaxHonestProbes(), w.TotalProbes()
		return o, root.dur(), nil
	}
	w := p.sim.World()
	w.ResetProbes()
	t.probes = w.TotalProbes
	pr := *p.sim.Params()
	var out []bitvec.Vector
	var root *span
	switch p.sc.Protocol {
	case collabscore.ProtoByzantine:
		root = t.span("replay", func() { out = replayByzantine(t, w, rng.Split(tagByzantine), pr) })
	case collabscore.ProtoRun:
		root = t.span("replay", func() { out = replayRun(t, w, rng.Split(tagRun), pr) })
	default:
		return o, 0, fmt.Errorf("no replay for protocol %v", p.sc.Protocol)
	}
	es := csmetrics.Error(w, out)
	o.digest = binaryDigest(out, es.Max, w.TotalProbes())
	o.maxError, o.maxProbes, o.totalProbes = es.Max, w.MaxHonestProbes(), w.TotalProbes()
	return o, root.dur(), nil
}

// setupSpans times the scenario's set-up layer by layer: truth generation,
// then world construction. With verify set it also checks that the layers
// built exactly the truth the public set-up built.
func (p *prepared) setupSpans(t *tracer, verify bool) error {
	sc := p.sc
	n, m := sc.Players, sc.Objects
	if m == 0 {
		m = n
	}
	rng := xrand.New(sc.Seed)
	spec, err := prefgen.ParseSourceSpec(sc.TruthSource)
	if err != nil {
		return err
	}
	if p.rs != nil {
		ref := p.rs.World()
		var src multival.RatingSource
		t.span("prefgen.generate", func() {
			if spec.IsDense() {
				truth, _ := multival.Generate(rng.Split(1), n, m, sc.ClusterSize, sc.Diameter, ref.Scale())
				src = multival.NewDensePlanes(truth)
			} else {
				src, _ = multival.LazyGenerate(rng.Split(1), n, m, sc.ClusterSize, sc.Diameter, ref.Scale())
			}
		})
		var w *multival.World
		t.span("world.build", func() { w = multival.NewWorldFrom(src, ref.Scale()) })
		if verify {
			for q := 0; q < n; q++ {
				if !slices.Equal(w.TruthRow(q), ref.TruthRow(q)) {
					return fmt.Errorf("seed=%d: layer set-up built a different rating row %d", sc.Seed, q)
				}
			}
		}
		return nil
	}
	var inst *prefgen.Instance
	t.span("prefgen.generate", func() {
		if spec.IsDense() {
			inst = prefgen.DiameterClusters(rng.Split(2), n, m, sc.ClusterSize, sc.Diameter)
		} else {
			inst = prefgen.LazyDiameterClusters(rng.Split(2), n, m, sc.ClusterSize, sc.Diameter, spec.Tiles)
		}
	})
	var w *world.World
	t.span("world.build", func() { w = world.NewFrom(inst.Source()) })
	if verify {
		got, want := w.Source(), p.sim.World().Source()
		for q := 0; q < n; q++ {
			for wi := 0; wi < w.ProbeWords(); wi++ {
				if got.TruthWord(q, wi) != want.TruthWord(q, wi) {
					return fmt.Errorf("seed=%d: layer set-up built a different truth row %d", sc.Seed, q)
				}
			}
		}
	}
	return nil
}

// serialReps makes the scenario's Byzantine repetitions run one after
// another, the schedule the replay uses, so that the traced and untraced
// runs do the same work on the same schedule. Outputs are byte-identical
// under either schedule.
func (p *prepared) serialReps() {
	if p.rs != nil {
		p.rs.Params().ByzSerial = true
	} else {
		p.sim.Params().ByzSerial = true
	}
}

// cpuSeconds returns the process's GC and total CPU time so far, as the
// runtime estimates them.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// gcFrac is the share of CPU time the garbage collector took while fn ran.
func gcFrac(fn func()) float64 {
	runtime.GC() // settle the CPU-time estimates, which update at GC cycles
	g0, c0 := cpuSeconds()
	fn()
	runtime.GC()
	g1, c1 := cpuSeconds()
	if c1 <= c0 {
		return 0
	}
	return (g1 - g0) / (c1 - c0)
}

// layerSeries collects per-layer values over the cycles of a traced run.
type layerSeries map[string][]float64

func (ls layerSeries) add(name string, v float64) { ls[name] = append(ls[name], v) }

// medians reduces the series to one value per per-layer metric, reporting
// 0 for layers the workload never called.
func (ls layerSeries) medians() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = medianOf(ls[m.Name])
	}
	return out
}

// addLayers records one replay's per-layer values.
func (ls layerSeries) addLayers(lt map[string]*layerTotal) {
	get := func(name string) *layerTotal {
		if l := lt[name]; l != nil {
			return l
		}
		return &layerTotal{}
	}
	sec := func(name string) float64 { return get(name).self.Seconds() }
	probes := func(name string) float64 { return float64(get(name).probes) }
	count := func(name, key string) float64 { return float64(get(name).counts[key]) }
	ls.add("prefgen.generate_s", sec("prefgen.generate"))
	ls.add("world.build_s", sec("world.build"))
	ls.add("smallradius.s", sec("smallradius"))
	ls.add("smallradius.probes", probes("smallradius"))
	ls.add("smallradius.alloc_mb", float64(get("smallradius").alloc)/(1<<20))
	ls.add("cluster.graph_s", sec("cluster.graph"))
	ls.add("cluster.edges", count("cluster.graph", "edges"))
	ls.add("cluster.peel_s", sec("cluster.peel"))
	ls.add("cluster.clusters", count("cluster.peel", "clusters"))
	ls.add("cluster.unassigned", count("cluster.peel", "unassigned"))
	ls.add("workshare.publish_s", sec("workshare.publish"))
	ls.add("workshare.tally_s", sec("workshare.tally"))
	ls.add("workshare.probes", probes("workshare.publish")+probes("workshare.tally"))
	ls.add("board.writes", float64(get("workshare.publish").writes))
	ls.add("board.reads", float64(get("workshare.tally").reads))
	ls.add("selection.rselect_s", sec("selection.rselect"))
	ls.add("selection.probes", probes("selection.rselect"))
	ls.add("election.s", sec("election"))
	ls.add("election.honest_leaders", count("election", "honest_leaders"))
	ls.add("multival.rep_s", sec("multival.rep"))
	ls.add("multival.probes", probes("multival.rep"))
}

// runTraced measures a workload's per-layer metrics for seconds: cycles of
// an untraced reference run followed by the traced replay (scenario
// workloads, on the first scenario), or of three grid passes (sweep-mix).
func runTraced(w workload, seed uint64, seconds float64, t *tracer) (result, []string, error) {
	c := newChecker()
	ls := layerSeries{}
	window := time.Duration(seconds * float64(time.Second))
	var err error
	if w.scen != nil {
		err = traceScenario(w.scen, seed, window, t, c, ls)
	} else {
		err = traceGrid(w.grid, seed, window, t, c, ls)
	}
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: make(map[string]metricValue)}
	vals := ls.medians()
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	return res, c.problems, nil
}

func traceScenario(s *scenarioSpec, seed uint64, window time.Duration, t *tracer, c *checker, ls layerSeries) error {
	items, _, err := s.setup(seed)
	if err != nil {
		return err
	}
	p := items[0]
	p.serialReps()
	var refs, replays []float64
	deadline := time.Now().Add(window)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		t.trace = cycle
		if err := p.setupSpans(t, cycle == 0); err != nil {
			return err
		}
		var ref outcome
		var refDur time.Duration
		ls.add("runtime.gc_cpu_frac", gcFrac(func() { ref, refDur = p.run() }))
		c.add(ref)
		got, replayDur, err := p.replay(t)
		if err != nil {
			return err
		}
		replays = append(replays, replayDur.Seconds())
		lt := t.layers(cycle)
		got.honestLeaders = int(lt["election"].countOr0("honest_leaders"))
		c.add(got)
		if layer, glue := layerProbes(lt); layer != ref.totalProbes || glue != 0 {
			c.fail(fmt.Sprintf("%s: layer spans charged %d probes (glue %d), the run %d", ref.key, layer, glue, ref.totalProbes))
		}
		ls.addLayers(lt)
		ls.add("trace.coverage", t.coverage(cycle, lt))
		refs = append(refs, refDur.Seconds())
	}
	ls.add("trace.overhead_frac", medianOf(replays)/medianOf(refs)-1)
	return nil
}

func traceGrid(g *gridSpec, seed uint64, window time.Duration, t *tracer, c *checker, ls layerSeries) error {
	workers := runtime.GOMAXPROCS(0)
	pts, _, warm, err := g.setup(seed, workers)
	if err != nil {
		return err
	}
	c.pass(pts, warm)
	byProto := make(map[string][]float64)
	var serial, traced []float64
	deadline := time.Now().Add(window)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		t.trace = cycle
		t.probes = nil
		// The engine on one worker, untraced.
		start := time.Now()
		ref, err := runGrid(pts, 1)
		if err != nil {
			return err
		}
		serial = append(serial, time.Since(start).Seconds())
		c.pass(pts, ref)
		refs := make(map[string]outcome, len(ref))
		for _, o := range ref {
			refs[o.key] = o
		}

		// The same points one by one on one Pool, a span per point.
		pl := collabscore.NewPool()
		var inPoints time.Duration
		root := t.span("replay", func() {
			for _, pt := range pts {
				sc, err := pt.Scenario()
				if err != nil {
					c.missing(1, err.Error())
					continue
				}
				var rep *collabscore.Report
				sp := t.span("sweep.point", func() { rep = pl.Run(sc) })
				sp.Label = pt.Protocol
				inPoints += sp.dur()
				byProto[pt.Protocol] = append(byProto[pt.Protocol], sp.dur().Seconds()*1e3)
				c.attempted++
				want, ok := refs[pt.Key()]
				if !ok || rep.MaxError != want.maxError || rep.MaxProbes != want.maxProbes || rep.TotalProbes != want.totalProbes {
					c.fail(pt.Key() + ": Pool.Run differs from the sweep engine")
				}
			}
		})
		traced = append(traced, root.dur().Seconds())
		ls.add("trace.coverage", inPoints.Seconds()/root.dur().Seconds())

		// The engine on every worker.
		var par time.Duration
		var outs []outcome
		ls.add("runtime.gc_cpu_frac", gcFrac(func() {
			start := time.Now()
			outs, err = runGrid(pts, workers)
			par = time.Since(start)
		}))
		if err != nil {
			return err
		}
		c.pass(pts, outs)
		ls.add("sweep.utilization", inPoints.Seconds()/(par.Seconds()*float64(workers)))
	}
	for _, proto := range sweepProtocols {
		ls[sweepP50(proto)] = byProto[proto]
	}
	ls.add("trace.overhead_frac", medianOf(traced)/medianOf(serial)-1)
	return nil
}

func sweepP50(proto string) string { return "sweep.point_p50_ms." + proto }

func (l *layerTotal) countOr0(key string) int64 {
	if l == nil {
		return 0
	}
	return l.counts[key]
}
