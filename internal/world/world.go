// Package world implements the game substrate of the paper's model (§2):
// n players, m objects, a hidden binary preference matrix, a probe oracle
// with per-player probe accounting, and pluggable per-player behaviors so
// dishonest strategies can be injected at every point where a player reports
// a value.
//
// Probes versus reports. Probing is the paper's cost measure: when player p
// probes object o it learns the truth v(p)_o, and we charge one probe to p.
// What p *reports* (writes to the bulletin board, or returns from a protocol
// subroutine) is a separate act: honest players report probed truth,
// dishonest players report whatever their strategy dictates — without
// necessarily probing, since the adversary is full-information.
package world

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"collabscore/internal/bitvec"
	"collabscore/internal/par"
	"collabscore/internal/prefgen"
)

// Behavior decides what a player reports when the protocol asks it to probe
// an object and publish the result. Implementations must be safe for
// concurrent use across distinct calls, including calls from concurrently
// executing Runs over the same World.
type Behavior interface {
	// Report returns the value player p publishes for object o. Honest
	// behaviors probe (charging p) and return the truth; dishonest ones may
	// return anything and typically do not probe. The Run carries the
	// published protocol state of the execution asking for the report.
	Report(rc *Run, p, o int) bool
}

// Honest is the protocol-following behavior: probe and report the truth.
type Honest struct{}

// Report probes object o as player p and returns the true preference.
func (Honest) Report(rc *Run, p, o int) bool { return rc.Probe(p, o) }

// Public is protocol state visible to all players — and therefore to the
// full-information adversary. Protocol phases update it as they go so that
// adaptive strategies (cluster hijacking, strange-object attacks) can react.
type Public struct {
	// Phase names the currently executing protocol phase, e.g. "sample",
	// "smallradius", "workshare".
	Phase string
	// Sample holds the current sample set S (global object ids), when one
	// has been published. Use SetSample to keep the membership index in sync.
	Sample []int
	// sampleSet indexes Sample as a bitset for O(1) membership tests.
	// Adversary behaviors consult it on every report of the smallradius
	// phase, so it must be cheap and safe under concurrent reads: the
	// vector is immutable between SetSample calls (which happen only at
	// phase barriers), and a bit test beats a map lookup on this path.
	sampleSet bitvec.Vector
	// Clusters holds the current clustering (player ids per cluster), when
	// one has been computed.
	Clusters [][]int
	// TargetDiameter is the diameter guess D of the current iteration.
	TargetDiameter int
}

// SetSample publishes a sample set and rebuilds the membership index.
// Passing nil clears the sample.
func (pub *Public) SetSample(sample []int) {
	pub.Sample = sample
	if sample == nil {
		pub.sampleSet = bitvec.Vector{}
		return
	}
	mx := 0
	for _, o := range sample {
		if o > mx {
			mx = o
		}
	}
	set := bitvec.New(mx + 1)
	for _, o := range sample {
		set.Set(o, true)
	}
	pub.sampleSet = set
}

// InSample reports whether object o belongs to the published sample set.
// It returns false when no sample is published.
func (pub *Public) InSample(o int) bool {
	return o >= 0 && o < pub.sampleSet.Len() && pub.sampleSet.Get(o)
}

// HasSample reports whether a sample set is currently published.
func (pub *Public) HasSample() bool { return pub.Sample != nil }

// Run is a per-execution context: one protocol run over a read-only World.
// It owns the mutable published state (Pub) that protocol phases update as
// they go and that full-information adversary behaviors observe. Because
// every run carries its own Pub, independent runs — e.g. the repetitions of
// the Byzantine wrapper — can execute concurrently over one World without
// their observer state interfering (see DESIGN.md §6).
//
// A Run embeds the World, so all read-only accessors (N, M, Probe,
// IsHonest, …) are available on it directly. Pub must only be mutated
// between parallel phases of the owning run (never concurrently with Report
// calls that read it), exactly as the World-global Pub had to be before
// Runs existed.
//
// A Run also carries the execution policy for its phase loops: protocol
// packages schedule their per-player and per-object fan-out on Exec(), so
// an entire run can be pinned to the single-threaded reference schedule
// (core.Params.PhaseSerial → NewRunOn(w, par.Serial()); DESIGN.md §9)
// without threading a flag through every protocol signature.
type Run struct {
	*World
	Pub Public
	// exec is the phase-loop executor; nil means par.Parallel().
	exec *par.Runner
}

// NewRun creates a fresh execution context over w with empty published
// state and the default parallel phase executor.
func NewRun(w *World) *Run { return &Run{World: w} }

// NewRunOn creates a fresh execution context whose phase loops run under
// the given executor (nil means parallel). Pass par.Serial() for the
// deterministic reference schedule, or par.Fixed(k) to force k workers in
// race tests.
func NewRunOn(w *World, exec *par.Runner) *Run { return &Run{World: w, exec: exec} }

// Exec returns the executor protocol phases must schedule their loops on.
// It never returns nil.
func (rc *Run) Exec() *par.Runner {
	if rc.exec == nil {
		return par.Parallel()
	}
	return rc.exec
}

// Report asks player p's behavior for its published value for object o, in
// the context of this run.
func (rc *Run) Report(p, o int) bool { return rc.behaviors[p].Report(rc, p, o) }

// ReportVector returns player p's reports for the objects of the compiled
// list g, as a vector indexed like g's positions. Each run of g (one
// object word, ascending objects) is fetched whole with ReportWord and
// moved into place with one compress (Extraction.ExtractWord). An honest
// player's fetch is one charged ProbeWord, which charges identically to
// per-object probes; a dishonest player is asked per object through its
// behavior, which over the runs in order is list order.
// Positions were range-checked when g was compiled, against a source
// length this world must have.
func (rc *Run) ReportVector(p int, g *bitvec.Extraction) bitvec.Vector {
	if g.SourceLen() != rc.m {
		panic(fmt.Sprintf("world: list compiled for %d objects, world has %d", g.SourceLen(), rc.m))
	}
	out := bitvec.New(g.Len())
	for r := range g.Runs() {
		wi, mask := g.Run(r)
		g.ExtractWord(out, r, rc.ReportWord(p, wi, mask))
	}
	return out
}

// ReportWord returns player p's reports for the objects whose bits are set
// in mask within object word wi, as a word aligned with mask. Honest
// players ride ProbeWord (two atomics for the whole word); dishonest
// players are asked per object through their behavior, in ascending object
// order.
func (rc *Run) ReportWord(p, wi int, mask uint64) uint64 {
	if rc.honest[p] {
		return rc.ProbeWord(p, wi, mask)
	}
	var vals uint64
	base := wi * 64
	for t := mask; t != 0; t &= t - 1 {
		b := bits.TrailingZeros64(t)
		if rc.Report(p, base+b) {
			vals |= 1 << uint(b)
		}
	}
	return vals
}

// World is the simulation substrate. The truth matrix, roles, and behaviors
// are fixed at construction; probe counters are updated concurrently. A
// World is read-only during protocol execution: all mutable published state
// lives in the per-execution Run.
type World struct {
	// Ledger is the probe accounting and honest roster (ledger.go).
	Ledger
	// src is the pluggable truth representation (DESIGN.md §14), the only
	// way the world reads truth.
	src       prefgen.TruthSource
	behaviors []Behavior
}

// New creates a world from a truth matrix. All players start honest; use
// SetBehavior/SetDishonest to corrupt some of them. It panics if truth is
// empty or rows have unequal lengths (prefgen.NewDense).
func New(truth []bitvec.Vector) *World { return NewFrom(prefgen.NewDense(truth)) }

// NewFrom creates a world over any truth source — the materialized Dense
// wrapper (New) or a lazy on-demand source. It panics if the source is
// empty.
func NewFrom(src prefgen.TruthSource) *World {
	n := src.Players()
	if n == 0 {
		panic("world: no players")
	}
	w := &World{
		Ledger:    NewLedger(n, src.Objects()),
		src:       src,
		behaviors: make([]Behavior, n),
	}
	for p := range w.behaviors {
		w.behaviors[p] = Honest{}
	}
	return w
}

// Probe returns the true preference v(p)_o and charges one probe to player
// p unless p has probed o before (probing teaches the answer permanently,
// so only distinct objects count). It is safe and lock-free under
// concurrent use: the memo's CAS ensures exactly one caller charges each
// (player, object) pair, so probe counters are schedule-independent.
func (w *World) Probe(p, o int) bool {
	w.ChargeBit(p, o)
	return w.truthBit(p, o)
}

// truthBit reads v(p)_o as a one-bit masked read of the truth source,
// which a lazy source answers with one hash.
func (w *World) truthBit(p, o int) bool {
	return w.src.TruthBits(p, o/64, 1<<(uint(o)%64)) != 0
}

// ProbeWord probes, as player p, every object whose bit is set in mask
// within object word wi (object ids wi*64 … wi*64+63), and returns the
// true preference bits for exactly those objects. Bits of mask past the
// last object are ignored. It is the word-level Probe, charged through
// Ledger.ChargeWord: two atomics for the whole word, with per-player totals
// identical to bit-at-a-time Probe under every schedule.
func (w *World) ProbeWord(p, wi int, mask uint64) uint64 {
	return w.src.TruthBits(p, wi, w.ChargeWord(p, wi, mask))
}

// Prober is player p's probe handle: ProbeWord with p's memo, probe
// counter and truth source resolved once, for a caller that probes many
// words as one player in a row (a selection tournament). It charges
// through the same step as Ledger.ChargeWord — the same CAS on the same
// memo and the same atomic add, so any mix of handles and direct probes,
// from any goroutines, charges each (player, object) pair once — and it
// panics on an out-of-range word the same way. The memo is installed on
// the first ProbeWord, not when the handle is made, so a handle that
// never probes leaves the player's memo uninstalled. A Prober is not safe
// for concurrent use; give each goroutine its own.
type Prober struct {
	l      *Ledger
	src    prefgen.TruthSource
	p      int
	memo   *bitvec.Atomic
	probes *atomic.Int64
}

// Prober returns player p's probe handle.
func (w *World) Prober(p int) Prober {
	return Prober{l: &w.Ledger, src: w.src, p: p, probes: &w.probes[p]}
}

// ProbeWord is World.ProbeWord for the handle's player.
func (pr *Prober) ProbeWord(wi int, mask uint64) uint64 {
	mask &= pr.l.WordMask(wi)
	if pr.memo == nil {
		pr.memo = pr.l.memo(pr.p)
	}
	chargeWord(pr.memo, pr.probes, wi, mask)
	return pr.src.TruthBits(pr.p, wi, mask)
}

// PeekTruth returns v(p)_o without charging a probe. It exists for the
// full-information adversary and for measurement code; protocol logic must
// use Probe.
func (w *World) PeekTruth(p, o int) bool { return w.truthBit(p, o) }

// TruthVector returns a copy of player p's full truth vector (measurement
// use only). For lazy sources this materializes the row.
func (w *World) TruthVector(p int) bitvec.Vector { return prefgen.Materialize(w.src, p) }

// Source returns the world's truth source.
func (w *World) Source() prefgen.TruthSource { return w.src }

// SetBehavior installs a behavior for player p and marks it dishonest
// unless the behavior is Honest.
func (w *World) SetBehavior(p int, b Behavior) {
	w.behaviors[p] = b
	_, isHonest := b.(Honest)
	w.SetHonest(p, isHonest)
}

// HonestError returns, for honest player p, the Hamming distance between
// the supplied output vector (over all m objects) and p's truth. It panics
// if the lengths differ.
func (w *World) HonestError(p int, out bitvec.Vector) int {
	if out.Len() != w.m {
		panic(fmt.Sprintf("bitvec: length mismatch %d vs %d", w.m, out.Len()))
	}
	d := 0
	for wi := 0; wi < w.words; wi++ {
		d += bits.OnesCount64(w.src.TruthWord(p, wi) ^ out.Word(wi))
	}
	return d
}
