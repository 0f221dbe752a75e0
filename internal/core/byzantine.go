package core

import (
	"collabscore/internal/election"
	"collabscore/internal/par"
	"collabscore/internal/xrand"
)

// ByzProtocol describes one protocol family to the generic §7 Byzantine
// wrapper (RunByzantineOver). The wrapper owns everything the paper's §7.1
// construction shares between value domains — per-repetition leader
// elections on pre-split streams, the dishonest-leader worst-case model,
// serial/parallel repetition scheduling with a deterministic merge, and the
// final cross-repetition selection coins — while the protocol family
// supplies the three points where the value domain matters: how to run one
// honest-leader repetition, what the adversary substitutes when its leader
// controls the shared coins, and how a player measures candidate distance
// when selecting among repetitions. The binary protocol (RunByzantine,
// Hamming distance over bitvec.Vector) and the §8 rating protocol
// (multival.RunByzantine, L1 distance over bitvec.Planes) are the two
// instantiations. The benchmark's traced replay, replayByzantine in
// bench/replay.go, mirrors the binary instantiation's loop so it can time
// each layer; its output is checked byte for byte against RunByzantine.
type ByzProtocol[T any] struct {
	// Repetitions is the number of leader-election + full-protocol
	// repetitions k (values < 1 run one repetition).
	Repetitions int
	// Serial forces the repetitions to execute one after another instead of
	// concurrently (reference runs, benchmarks, debugging). Repetitions are
	// independent and merged deterministically either way.
	Serial bool
	// Strategy drives dishonest players' election behavior (nil: greedy
	// lightest-bin rushing).
	Strategy election.BinStrategy
	// Election configures Feige's lightest-bin tournament.
	Election election.Params

	// RunRep executes the full protocol of one repetition under an honest
	// leader's unbiased shared coins. The wrapper keeps its Output, and
	// records its Iterations and board traffic on the repetition's
	// RepetitionStats. RunRep must be safe for concurrent invocations
	// unless Serial is set.
	RunRep func(shared *xrand.Stream) *Outcome[T]
	// Adversarial returns the worst-case outputs of a dishonest-leader
	// repetition: the adversary controls the shared coins, which we model
	// by letting it replace the repetition's candidates outright (strictly
	// worse than anything a biased seed could produce; DESIGN.md §3).
	Adversarial func(it int) []T
	// SelectFinal picks each player's output among the repetition outputs
	// (outputs[it][p]) with the candidate-distance measure of the value
	// domain, consuming the wrapper-provided selection stream.
	SelectFinal func(rng *xrand.Stream, outputs [][]T) []T
}

// RunByzantineOver executes the §7 wrapper skeleton for any value domain:
// k repetitions, each electing a leader with Feige's protocol on its own
// pre-split stream and running either the honest-coin protocol or the
// adversarial worst case, then the final cross-repetition selection.
//
// Streams: repetition it elects on trueRng.Split(0xE1EC, it), runs on
// trueRng.Split(0x5EED, it), and the final selection draws from
// trueRng.Split(0xF17A1) — pure reads of the parent state, so splitting
// order is irrelevant and fixed-seed outputs are byte-identical between the
// serial and concurrent repetition schedules (DESIGN.md §6).
//
// It returns the selected outputs with the per-repetition statistics in
// repetition order (Leader/HonestLeader always set, plus each honest
// repetition's Iterations and board traffic), merged in that order: the
// honest-leader count, the last honest repetition's Iterations, and the
// board totals — so every counter is independent of the schedule.
func RunByzantineOver[T any](w election.Roster, trueRng *xrand.Stream, pb ByzProtocol[T]) *Outcome[T] {
	k := max(pb.Repetitions, 1)

	// Split every repetition's streams from the parent up front. Splitting
	// is a pure read of the parent's state — concurrent Splits of one
	// parent are safe — but a repetition must never *draw* (Uint64 etc.)
	// from a stream another repetition touches, so each gets its own
	// children before the fan-out.
	elecRng := make([]*xrand.Stream, k)
	sharedRng := make([]*xrand.Stream, k)
	for it := 0; it < k; it++ {
		elecRng[it] = trueRng.Split(0xE1EC, uint64(it))
		sharedRng[it] = trueRng.Split(0x5EED, uint64(it))
	}

	res := &Outcome[T]{Repetitions: k, Reps: make([]RepetitionStats, k)}
	outputs := make([][]T, k)
	runRep := func(it int) {
		st := &res.Reps[it]
		el := election.Run(w, elecRng[it], pb.Strategy, pb.Election)
		st.Leader = el.Leader
		if !w.IsHonest(el.Leader) {
			outputs[it] = pb.Adversarial(it)
			return
		}
		sub := pb.RunRep(sharedRng[it])
		st.HonestLeader = true
		st.Iterations = sub.Iterations
		st.BoardWrites = sub.BoardWrites
		st.BoardReads = sub.BoardReads
		outputs[it] = sub.Output
	}
	if pb.Serial {
		for it := 0; it < k; it++ {
			runRep(it)
		}
	} else {
		par.For(k, runRep)
	}
	for _, st := range res.Reps {
		if st.HonestLeader {
			res.HonestLeaders++
			res.Iterations = st.Iterations
		}
		res.BoardWrites += st.BoardWrites
		res.BoardReads += st.BoardReads
	}
	res.Output = pb.SelectFinal(trueRng.Split(0xF17A1), outputs)
	return res
}
