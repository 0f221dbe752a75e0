package multival

import (
	"collabscore/internal/bitvec"
	"collabscore/internal/core"
	"collabscore/internal/election"
	"collabscore/internal/xrand"
)

// RunByzantine executes the §7-style wrapper over the non-binary protocol:
// repeat the generalized CalculatePreferences under Θ(log n) elected
// leaders (Feige's lightest-bin election works unchanged — it only needs
// to know who is honest) and select the best repetition per player by an
// L1 spot check. When a dishonest leader is elected, the repetition's
// shared coins are adversarial; as in the binary protocol we model the
// worst case by replacing the repetition's outputs with maximally wrong
// rating vectors (scale − truth).
//
// The election/repetition/selection skeleton, and the repetition-order
// merge of its statistics, are the one generic wrapper shared with the
// binary protocol (core.RunByzantineOver); this function only supplies the
// rating-domain pieces — the repetition runner (Run), the mirrored worst
// case, and the L1 candidate-distance measure. Repetitions execute
// concurrently unless pr.ByzSerial is set.
func RunByzantine(w *World, trueRng *xrand.Stream, binStrategy election.BinStrategy, repetitions int, pr Params) *Result {
	n := w.N()
	return core.RunByzantineOver(w, trueRng, core.ByzProtocol[bitvec.Planes]{
		Repetitions: repetitions,
		Serial:      pr.ByzSerial,
		Strategy:    binStrategy,
		Election:    election.Defaults(),
		RunRep:      func(shared *xrand.Stream) *Result { return Run(w, shared, pr) },
		Adversarial: func(int) []bitvec.Planes {
			// Adversarial coins: worst-case repetition outputs, maximally
			// wrong for every player — the bit-sliced broadcast scale −
			// truth (the rating analogue of the binary complement).
			worst := make([]bitvec.Planes, n)
			for p := 0; p < n; p++ {
				worst[p] = w.TruthMirror(p)
			}
			return worst
		},
		SelectFinal: func(rng *xrand.Stream, byRep [][]bitvec.Planes) []bitvec.Planes {
			// The same L1 spot check as Run, among repetitions, with each
			// player's coins split from the selection stream by player id.
			return selectL1(w, phaseExec(pr), byRep, func(p int) *xrand.Stream {
				return rng.Split(uint64(p))
			})
		},
	})
}
