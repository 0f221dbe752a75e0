package prefgen

// The truth-source seam (DESIGN.md §14). The paper's protocols only ever
// PROBE truth bits — nothing needs the n×m matrix as a data structure — so
// how truth is represented is an implementation choice, exactly like
// neighbor discovery (cluster.IndexSpec, §13). Dense is the
// materialized reference oracle and the default; Lazy computes any cell on
// demand as a pure function of the generation seed, one hash per cell read,
// dropping the O(n·m) memory wall. Both are bit-identical for the same
// generation stream: the oracle test layer pins every probe-path output.

import (
	"fmt"

	"collabscore/internal/bitvec"
)

// TruthSource is the pluggable representation of a hidden preference
// matrix: n players × m objects of binary truth, addressed by (player,
// object word). Implementations must be pure — the same cell always reads
// the same bit — and safe for concurrent readers, because probe paths fan
// out across phase goroutines. Word reads mask bits past the last object
// to zero, mirroring bitvec.Vector.Word.
type TruthSource interface {
	// Players returns n; Objects returns m.
	Players() int
	Objects() int
	// TruthWord returns the 64 truth bits of player p's object word wi
	// (objects wi·64 … wi·64+63; bits past Objects() are zero).
	TruthWord(p, wi int) uint64
	// TruthBits returns TruthWord(p, wi) & mask: the truth bits of the
	// objects whose bits are set in mask. Probes read through it, so a
	// source may skip computing the bits the mask leaves out.
	TruthBits(p, wi int, mask uint64) uint64
}

// Dense is the materialized truth source: a wrapper over the generated
// row vectors, the reference oracle every lazy representation is pinned
// against. It is the historical representation, bit for bit.
type Dense struct {
	rows []bitvec.Vector
}

// NewDense wraps materialized truth rows as a TruthSource. It panics if the
// rows have unequal lengths.
func NewDense(rows []bitvec.Vector) *Dense {
	for p, v := range rows {
		if v.Len() != rows[0].Len() {
			panic(fmt.Sprintf("prefgen: truth row %d has length %d, want %d", p, v.Len(), rows[0].Len()))
		}
	}
	return &Dense{rows: rows}
}

// Players returns the number of rows.
func (d *Dense) Players() int { return len(d.rows) }

// Objects returns the row length (0 when empty).
func (d *Dense) Objects() int {
	if len(d.rows) == 0 {
		return 0
	}
	return d.rows[0].Len()
}

// TruthWord returns word wi of row p.
func (d *Dense) TruthWord(p, wi int) uint64 { return d.rows[p].Word(wi) }

// TruthBits returns the bits of mask in word wi of row p.
func (d *Dense) TruthBits(p, wi int, mask uint64) uint64 { return d.rows[p].Word(wi) & mask }

// Materialize builds player p's full truth row from any source. It is the
// bridge measurement code uses (world.TruthVector) and the oracle tests'
// workhorse: a lazy row materialized this way must equal the dense row.
func Materialize(src TruthSource, p int) bitvec.Vector {
	m := src.Objects()
	v := bitvec.New(m)
	for wi := 0; wi < (m+63)/64; wi++ {
		v.SetWord(wi, src.TruthWord(p, wi))
	}
	return v
}

// SourceSpec is the serializable truth-source knob carried by configs and
// sweep grids, mirroring cluster.IndexSpec. The zero value selects Dense —
// the default, so unset knobs keep the historical behavior bit for bit.
// Kind "lazy" selects on-demand generation.
type SourceSpec struct {
	// Kind is "" or "dense" for the materialized oracle, "lazy" for
	// on-demand generation.
	Kind string
	// Tiles is always zero.
	//
	// Deprecated: lazy sources have no tile cache. Tiles stays only so the
	// benchmark replay (bench/layers.go) compiles, and is removed together
	// with that replay.
	Tiles int
}

// IsDense reports whether the spec selects the materialized reference
// representation.
func (sp SourceSpec) IsDense() bool { return sp.Kind == "" || sp.Kind == "dense" }

// String returns the canonical flag/axis form, "dense" or "lazy".
// ParseSourceSpec inverts it.
func (sp SourceSpec) String() string {
	if sp.IsDense() {
		return "dense"
	}
	return sp.Kind
}

// ParseSourceSpec parses the "dense" | "lazy" forms used by
// Config.TruthSource, sweep specs, and cmd/sweep's -truth flag ("" and
// "dense" both yield the zero spec, so the default stays canonical).
// Parsing is strict — anything else is rejected rather than silently
// running a wrong experiment, matching cluster.ParseIndexSpec.
func ParseSourceSpec(s string) (SourceSpec, error) {
	switch s {
	case "", "dense":
		return SourceSpec{}, nil
	case "lazy":
		return SourceSpec{Kind: "lazy"}, nil
	}
	return SourceSpec{}, fmt.Errorf("prefgen: bad truth source %q (want \"\", \"dense\", or \"lazy\")", s)
}
