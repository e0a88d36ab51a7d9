package plan

import (
	"math/big"

	"phom/internal/betadnf"
	"phom/internal/ddnnf"
)

// Plan is a compiled, probability-independent evaluation artifact: the
// output of one tractable cell's structural phase. Its edge references
// index the edge list of the instance the plan was compiled from
// (position i holds π of edge i); callers reweighting a structurally
// identical instance with a different edge numbering must permute the
// vector first (see graphio.CanonicalEdgeOrder).
//
// A plan is not evaluated directly: EmitOps lowers its arithmetic to
// the flat Program IR (see Lower), which is what the solver pipeline
// executes and what internal/graphio serializes.
type Plan interface {
	EmitOps(b *Builder) (uint32, error)
}

// Const is the plan of a job decided by structure alone: a trivial
// (edgeless) query, a query label absent from the instance, or a
// non-graded query on forest worlds. Its value is independent of π.
type Const struct {
	Value *big.Rat
}

// NewConst returns a Const plan with the given value (copied).
func NewConst(v *big.Rat) Const {
	return Const{Value: new(big.Rat).Set(v)}
}

// Chain is a β-acyclic chain system (the lineages of Propositions 4.10
// and 3.6 on downward-tree instances), precompiled so lowering unrolls
// the dynamic program with no per-call setup. NodeEdge maps each system
// node to the instance edge above it (−1 for roots, whose probability
// is fixed to 1).
type Chain struct {
	System   *betadnf.CompiledChain
	NodeEdge []int
}

// Interval is a β-acyclic interval system (the lineages of
// Proposition 4.11 on two-way-path instances). VarEdge maps each path
// position to the instance edge at that position.
type Interval struct {
	System  *betadnf.IntervalSystem
	VarEdge []int
}

// Circuit is a d-DNNF lineage circuit (the automaton pipeline of
// Proposition 5.4 on polytree instances). VarEdge maps each circuit
// variable to an instance edge.
type Circuit struct {
	C       *ddnnf.Circuit
	Out     ddnnf.Gate
	VarEdge []int
}

// Components is the Lemma 3.7 composite: for a connected query over a
// disconnected instance, Pr = 1 − Π_i (1 − p_i) over the per-component
// plans, whose edge references all index the full instance edge list.
type Components struct {
	Parts []Plan
}
