package graph

import (
	"fmt"
	"math/big"
)

// Common rational constants. Treat as read-only.
var (
	RatZero = big.NewRat(0, 1)
	RatOne  = big.NewRat(1, 1)
	RatHalf = big.NewRat(1, 2)
)

// Rat parses a rational probability from a string such as "1/2", "0.35"
// or "1". It panics on malformed input; intended for literals.
func Rat(s string) *big.Rat {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		panic(fmt.Sprintf("graph: malformed rational %q", s))
	}
	return r
}

// ProbGraph is a probabilistic graph (H, π): a graph together with an
// independent existence probability π(e) ∈ [0, 1] for every edge,
// represented exactly as a rational number (§2). Its possible worlds are
// the subgraphs of H, weighted by Π_{e kept} π(e) · Π_{e dropped} (1−π(e)).
type ProbGraph struct {
	G     *Graph
	probs []*big.Rat // parallel to G's edge list
}

// NewProbGraph wraps g with every edge certain (probability 1).
func NewProbGraph(g *Graph) *ProbGraph {
	probs := make([]*big.Rat, g.NumEdges())
	for i := range probs {
		probs[i] = new(big.Rat).SetInt64(1)
	}
	return &ProbGraph{G: g, probs: probs}
}

// NewProbGraphWith wraps g with the given probabilities, one per edge
// in edge-list order. The *big.Rat values are shared, not copied: the
// caller must not mutate them afterwards.
func NewProbGraphWith(g *Graph, probs []*big.Rat) (*ProbGraph, error) {
	p := &ProbGraph{G: g, probs: probs}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// SetProb sets π of the i-th edge (edge-list order).
func (p *ProbGraph) SetProb(i int, r *big.Rat) error {
	if i < 0 || i >= len(p.probs) {
		return fmt.Errorf("probgraph: edge index %d out of range", i)
	}
	if !isProb(r) {
		return fmt.Errorf("probgraph: probability %s outside [0,1]", r.RatString())
	}
	p.probs[i] = new(big.Rat).Set(r)
	return nil
}

// isProb reports 0 ≤ r ≤ 1 without allocating: r's denominator is
// positive, so r ≤ 1 iff its numerator is at most its denominator.
func isProb(r *big.Rat) bool {
	return r.Sign() >= 0 && r.Num().Cmp(r.Denom()) <= 0
}

// SetEdgeProb sets π of the edge (from, to).
func (p *ProbGraph) SetEdgeProb(from, to Vertex, r *big.Rat) error {
	i, ok := p.G.EdgeIndex(from, to)
	if !ok {
		return fmt.Errorf("probgraph: no edge %d->%d", from, to)
	}
	return p.SetProb(i, r)
}

// MustSetEdgeProb is SetEdgeProb that panics on error.
func (p *ProbGraph) MustSetEdgeProb(from, to Vertex, r *big.Rat) {
	if err := p.SetEdgeProb(from, to, r); err != nil {
		panic(err)
	}
}

// Prob returns π of the i-th edge. The result must not be mutated.
func (p *ProbGraph) Prob(i int) *big.Rat { return p.probs[i] }

// EdgeProb returns π of the edge (from, to), and whether the edge exists.
func (p *ProbGraph) EdgeProb(from, to Vertex) (*big.Rat, bool) {
	i, ok := p.G.EdgeIndex(from, to)
	if !ok {
		return nil, false
	}
	return p.probs[i], true
}

// UncertainEdges returns the indices of edges with 0 < π < 1; only these
// need to be branched on when enumerating possible worlds.
func (p *ProbGraph) UncertainEdges() []int {
	var out []int
	for i, r := range p.probs {
		if r.Sign() > 0 && r.Cmp(RatOne) < 0 {
			out = append(out, i)
		}
	}
	return out
}

// WorldProb returns the probability of the possible world keeping exactly
// the edges with keep[i] true.
func (p *ProbGraph) WorldProb(keep []bool) *big.Rat {
	if len(keep) != len(p.probs) {
		panic("probgraph: keep mask length mismatch")
	}
	w := new(big.Rat).SetInt64(1)
	tmp := new(big.Rat)
	for i, k := range keep {
		if k {
			w.Mul(w, p.probs[i])
		} else {
			tmp.Sub(RatOne, p.probs[i])
			w.Mul(w, tmp)
		}
	}
	return w
}

// Clone returns a deep copy of p.
func (p *ProbGraph) Clone() *ProbGraph {
	q := &ProbGraph{G: p.G.Clone(), probs: make([]*big.Rat, len(p.probs))}
	for i, r := range p.probs {
		q.probs[i] = new(big.Rat).Set(r)
	}
	return q
}

// CloneProbs returns a probabilistic graph sharing p's underlying
// graph value but owning its probability assignment: SetProb on either
// never affects the other (probabilities are stored as fresh copies and
// replaced whole, never mutated in place). This is the reweight-lane
// constructor — K lanes over one structure share one *Graph, which is
// what lets batch consumers (the engine's same-structure grouping, the
// server's multi-vector reweight) recognize the lanes as groupable by
// graph identity instead of re-canonicalizing each.
func (p *ProbGraph) CloneProbs() *ProbGraph {
	q := &ProbGraph{G: p.G, probs: make([]*big.Rat, len(p.probs))}
	copy(q.probs, p.probs)
	return q
}

// Validate checks that every probability is a rational in [0, 1].
func (p *ProbGraph) Validate() error {
	if len(p.probs) != p.G.NumEdges() {
		return fmt.Errorf("probgraph: %d probabilities for %d edges", len(p.probs), p.G.NumEdges())
	}
	for i, r := range p.probs {
		if r == nil {
			return fmt.Errorf("probgraph: edge %d has nil probability", i)
		}
		if !isProb(r) {
			return fmt.Errorf("probgraph: edge %d probability %s outside [0,1]", i, r.RatString())
		}
	}
	return nil
}

// Components splits p into one probabilistic graph per connected component
// of the underlying graph, preserving edge probabilities. Per Lemma 3.7,
// for a connected query G, Pr(G ⇝ H) = 1 − Π_i (1 − Pr(G ⇝ Hᵢ)) over the
// components Hᵢ.
func (p *ProbGraph) Components() []*ProbGraph {
	out, _ := p.ComponentsWithEdges()
	return out
}

// ComponentsWithEdges is Components together with, per component, the map
// from the component's edge indices back to the edge indices of p. The
// maps let probability-independent artifacts compiled per component (the
// plans of internal/plan) be re-evaluated against fresh probability
// vectors indexed by p's full edge list.
func (p *ProbGraph) ComponentsWithEdges() ([]*ProbGraph, [][]int) {
	comps, edgeMaps := p.G.split()
	out := make([]*ProbGraph, len(comps))
	for c, sub := range comps {
		// The *big.Rat values are shared: they are read-only, and
		// SetProb replaces rather than mutates.
		probs := make([]*big.Rat, len(edgeMaps[c]))
		for j, i := range edgeMaps[c] {
			probs[j] = p.probs[i]
		}
		out[c] = &ProbGraph{G: sub, probs: probs}
	}
	return out, edgeMaps
}

// Probs returns the probability vector π in edge-list order, as a fresh
// slice sharing the underlying (read-only) *big.Rat values. It is the
// canonical argument to evaluate a compiled plan against p itself.
func (p *ProbGraph) Probs() []*big.Rat {
	out := make([]*big.Rat, len(p.probs))
	copy(out, p.probs)
	return out
}

// String renders the probabilistic graph for debugging.
func (p *ProbGraph) String() string {
	s := "prob" + p.G.String() + " π={"
	for i, r := range p.probs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s:%s", p.G.edges[i], r.RatString())
	}
	return s + "}"
}
