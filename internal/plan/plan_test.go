package plan

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/gen"
	"phom/internal/graph"
)

func rat(s string) *big.Rat { return graph.Rat(s) }

// treeEval evaluates a plan tree through the substrate dynamic programs
// (betadnf, ddnnf) with no lowering involved: the independent reference
// the Program IR is differentially checked against.
func treeEval(p Plan, probs []*big.Rat) (*big.Rat, error) {
	pick := func(refs []int, rootIsOne bool) ([]*big.Rat, error) {
		out := make([]*big.Rat, len(refs))
		for i, ei := range refs {
			switch {
			case ei < 0 && rootIsOne:
				out[i] = graph.RatOne
			case ei < 0 || ei >= len(probs):
				return nil, fmt.Errorf("variable %d references edge %d of %d", i, ei, len(probs))
			default:
				out[i] = probs[ei]
			}
		}
		return out, nil
	}
	switch t := p.(type) {
	case Const:
		return new(big.Rat).Set(t.Value), nil
	case Chain:
		v, err := pick(t.NodeEdge, true)
		if err != nil {
			return nil, err
		}
		return t.System.Prob(v)
	case Interval:
		v, err := pick(t.VarEdge, false)
		if err != nil {
			return nil, err
		}
		return t.System.Prob(v)
	case Circuit:
		v, err := pick(t.VarEdge, false)
		if err != nil {
			return nil, err
		}
		return t.C.Prob(t.Out, v), nil
	case Components:
		miss := big.NewRat(1, 1)
		for _, part := range t.Parts {
			q, err := treeEval(part, probs)
			if err != nil {
				return nil, err
			}
			miss.Mul(miss, q.Sub(graph.RatOne, q))
		}
		return miss.Sub(graph.RatOne, miss), nil
	}
	return nil, fmt.Errorf("unsupported plan %T", p)
}

// lowerExec lowers p over numEdges edges and executes it exactly.
func lowerExec(t *testing.T, p Plan, numEdges int, probs []*big.Rat) *big.Rat {
	t.Helper()
	prog, err := Lower(p, numEdges)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.Exec(probs)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestConstEvaluateCopies(t *testing.T) {
	c := NewConst(rat("2/3"))
	prog, err := Lower(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.Exec(nil)
	if err != nil {
		t.Fatal(err)
	}
	a.SetInt64(7) // mutating the result must not poison the plan
	if b := lowerExec(t, c, 0, nil); b.Cmp(rat("2/3")) != 0 {
		t.Fatalf("Const mutated through a returned result: %s", b.RatString())
	}
	if b, _ := prog.Exec(nil); b.Cmp(rat("2/3")) != 0 {
		t.Fatalf("program mutated through a returned result: %s", b.RatString())
	}
}

func TestComponentsCombination(t *testing.T) {
	c := Components{Parts: []Plan{NewConst(rat("1/2")), NewConst(rat("1/3"))}}
	// 1 − (1 − 1/2)(1 − 1/3) = 2/3.
	if p := lowerExec(t, c, 0, nil); p.Cmp(rat("2/3")) != 0 {
		t.Fatalf("Components = %s, want 2/3", p.RatString())
	}
}

func TestChainEvaluateMapsEdges(t *testing.T) {
	// Two nodes: 1 is the child of 0 through instance edge 3; a clause of
	// length 1 at node 1 means Pr = π(edge 3).
	cc, err := (&betadnf.ChainSystem{Parent: []int{-1, 0}, ChainLen: []int{0, 1}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	c := Chain{
		System:   cc,
		NodeEdge: []int{-1, 3},
	}
	probs := []*big.Rat{rat("1"), rat("1"), rat("1"), rat("1/4")}
	if p := lowerExec(t, c, len(probs), probs); p.Cmp(rat("1/4")) != 0 {
		t.Fatalf("Chain = %s, want 1/4", p.RatString())
	}
	if _, err := Lower(c, 2); err == nil {
		t.Fatal("expected an out-of-range error for a short edge list")
	}
}

func TestIntervalEvaluateMapsEdges(t *testing.T) {
	// One variable mapped to instance edge 2; one unit clause.
	iv := Interval{
		System:  &betadnf.IntervalSystem{NumVars: 1, Clauses: []betadnf.Interval{{Lo: 0, Hi: 0}}},
		VarEdge: []int{2},
	}
	probs := []*big.Rat{rat("1"), rat("1"), rat("3/5")}
	if p := lowerExec(t, iv, len(probs), probs); p.Cmp(rat("3/5")) != 0 {
		t.Fatalf("Interval = %s, want 3/5", p.RatString())
	}
	if _, err := Lower(iv, 1); err == nil {
		t.Fatal("expected an out-of-range error for a short edge list")
	}
}

// oracleWorlds computes Pr(world contains →^m) on h by world enumeration.
func oracleWorlds(t *testing.T, h *graph.ProbGraph, m int) *big.Rat {
	t.Helper()
	q := graph.UnlabeledPath(m)
	n := h.G.NumEdges()
	keep := make([]bool, n)
	total := new(big.Rat)
	var rec func(i int, w *big.Rat)
	rec = func(i int, w *big.Rat) {
		if w.Sign() == 0 {
			return
		}
		if i == n {
			if graph.HasHomomorphism(q, h.G.SubgraphKeeping(keep)) {
				total.Add(total, w)
			}
			return
		}
		keep[i] = true
		rec(i+1, new(big.Rat).Mul(w, h.Prob(i)))
		keep[i] = false
		rec(i+1, new(big.Rat).Mul(w, new(big.Rat).Sub(graph.RatOne, h.Prob(i))))
	}
	rec(0, big.NewRat(1, 1))
	return total
}

// TestCompiledPlansMatchOracle cross-checks the lowered programs of the
// path compilers on small random instances against possible-world
// enumeration, evaluating the same plan under several distinct
// probability assignments.
func TestCompiledPlansMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	un := []graph.Label{graph.Unlabeled}
	for trial := 0; trial < 25; trial++ {
		m := 1 + r.Intn(3)
		hg := gen.RandInClass(r, graph.ClassUDWT, 2+r.Intn(6), un)
		h := gen.RandProb(r, hg, 0.8)
		p, err := DirectedPathOnDWTs(h, m)
		if err != nil {
			t.Fatal(err)
		}
		for reweight := 0; reweight < 3; reweight++ {
			got := lowerExec(t, p, h.G.NumEdges(), h.Probs())
			if want := oracleWorlds(t, h, m); got.Cmp(want) != 0 {
				t.Fatalf("DWT trial %d: plan %s, oracle %s", trial, got.RatString(), want.RatString())
			}
			randomize(r, h)
		}
	}
	for trial := 0; trial < 25; trial++ {
		m := 1 + r.Intn(3)
		hg := gen.RandInClass(r, graph.ClassUPT, 2+r.Intn(6), un)
		h := gen.RandProb(r, hg, 0.8)
		p, err := DirectedPathOnPolytrees(h, m)
		if err != nil {
			t.Fatal(err)
		}
		for reweight := 0; reweight < 3; reweight++ {
			got := lowerExec(t, p, h.G.NumEdges(), h.Probs())
			if want := oracleWorlds(t, h, m); got.Cmp(want) != 0 {
				t.Fatalf("PT trial %d: plan %s, oracle %s", trial, got.RatString(), want.RatString())
			}
			randomize(r, h)
		}
	}
}

// randomize assigns fresh random probabilities to every edge of h.
func randomize(r *rand.Rand, h *graph.ProbGraph) {
	for i := 0; i < h.G.NumEdges(); i++ {
		if err := h.SetProb(i, big.NewRat(int64(r.Intn(17)), 16)); err != nil {
			panic(err)
		}
	}
}
