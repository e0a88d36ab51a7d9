package core

import (
	"context"
	"math/big"

	"phom/internal/boolform"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// DefaultBruteForceLimit bounds the number of uncertain edges the
// possible-world enumeration accepts by default (2^22 worlds).
const DefaultBruteForceLimit = 22

// BruteForce computes Pr(G ⇝ H) exactly by enumerating the possible
// worlds of H, branching only on edges with probability strictly between
// 0 and 1. It is exponential in the number of uncertain edges and serves
// as the ground-truth oracle for every other algorithm, and as the exact
// baseline for the #P-hard cells of Tables 1–3.
func BruteForce(q *graph.Graph, h *graph.ProbGraph) *big.Rat {
	r, err := BruteForceLimit(q, h, 0)
	if err != nil {
		panic(err) // unreachable: limit 0 means unbounded, context never fires
	}
	return r
}

// BruteForceLimit is BruteForce with a cap on the number of uncertain
// edges (0 = unbounded).
func BruteForceLimit(q *graph.Graph, h *graph.ProbGraph, maxUncertain int) (*big.Rat, error) {
	return BruteForceLimitContext(context.Background(), q, h, maxUncertain)
}

// BruteForceLimitContext is BruteForceLimit with cooperative
// cancellation: the world enumeration polls ctx every
// phomerr.CheckInterval branches, so a cancelled context aborts the
// exponential recursion within one checkpoint interval (plus the cost
// of the homomorphism check of a single world) and returns the typed
// cancellation error.
func BruteForceLimitContext(ctx context.Context, q *graph.Graph, h *graph.ProbGraph, maxUncertain int) (*big.Rat, error) {
	uncertain := h.UncertainEdges()
	if maxUncertain > 0 && len(uncertain) > maxUncertain {
		return nil, phomerr.New(phomerr.CodeLimit,
			"core: %d uncertain edges exceed brute-force limit %d", len(uncertain), maxUncertain)
	}
	g := h.G
	keep := make([]bool, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		keep[i] = h.Prob(i).Cmp(graph.RatOne) == 0
	}
	cp := phomerr.NewCheckpoint(ctx)
	one := big.NewRat(1, 1)
	total := new(big.Rat)
	var abort error
	var rec func(i int, w *big.Rat)
	rec = func(i int, w *big.Rat) {
		if abort != nil || w.Sign() == 0 {
			return
		}
		if abort = cp.Check(); abort != nil {
			return
		}
		if i == len(uncertain) {
			world := g.SubgraphKeeping(keep)
			if graph.HasHomomorphism(q, world) {
				total.Add(total, w)
			}
			return
		}
		ei := uncertain[i]
		keep[ei] = true
		rec(i+1, new(big.Rat).Mul(w, h.Prob(ei)))
		keep[ei] = false
		rec(i+1, new(big.Rat).Mul(w, new(big.Rat).Sub(one, h.Prob(ei))))
	}
	rec(0, big.NewRat(1, 1))
	if abort != nil {
		return nil, abort
	}
	return total, nil
}

// LineageShannon computes Pr(G ⇝ H) by enumerating every homomorphism
// from G to H, collecting the DNF lineage whose clauses are the edge sets
// of the match images (Definition 4.6), and evaluating its probability by
// Shannon expansion. Both phases are exponential in the worst case, but
// on instances with few matches this baseline vastly outperforms world
// enumeration; it is the second exact baseline (ablation experiment E18).
// maxMatches caps the number of enumerated homomorphisms (0 = unbounded).
func LineageShannon(q *graph.Graph, h *graph.ProbGraph, maxMatches int) (*big.Rat, error) {
	return LineageShannonContext(context.Background(), q, h, maxMatches)
}

// LineageShannonContext is LineageShannon with cooperative
// cancellation, polled once per enumerated homomorphism (amortized by
// phomerr.CheckInterval).
func LineageShannonContext(ctx context.Context, q *graph.Graph, h *graph.ProbGraph, maxMatches int) (*big.Rat, error) {
	if q.NumEdges() == 0 {
		if q.NumVertices() > 0 && h.G.NumVertices() > 0 {
			return big.NewRat(1, 1), nil
		}
		return new(big.Rat), nil
	}
	dnf, err := MatchLineageContext(ctx, q, h.G, maxMatches)
	if err != nil {
		return nil, err
	}
	probs := make([]*big.Rat, h.G.NumEdges())
	for i := range probs {
		probs[i] = h.Prob(i)
	}
	// The Shannon expansion is the second exponential phase of this
	// baseline; it polls the same ctx, so cancellation covers match
	// enumeration and expansion alike (ROADMAP item 2).
	return dnf.ShannonProbContext(ctx, probs)
}

// MatchLineageContext builds the DNF lineage of q on the (deterministic
// part of the) instance g: one clause per distinct match image, over
// the edge indices of g. maxMatches caps enumeration (0 = unbounded);
// ctx is polled once per enumerated homomorphism.
func MatchLineageContext(ctx context.Context, q, g *graph.Graph, maxMatches int) (*boolform.DNF, error) {
	dnf := boolform.NewDNF(g.NumEdges())
	seen := map[string]bool{}
	cp := phomerr.NewCheckpoint(ctx)
	count := 0
	exceeded := false
	var abort error
	graph.ForEachHomomorphism(q, g, func(hm graph.Homomorphism) bool {
		if abort = cp.Check(); abort != nil {
			return false
		}
		count++
		if maxMatches > 0 && count > maxMatches {
			exceeded = true
			return false
		}
		clause := make([]boolform.Var, 0, q.NumEdges())
		for _, e := range q.Edges() {
			ei, ok := g.EdgeIndex(hm[e.From], hm[e.To])
			if !ok {
				panic("core: homomorphism image misses an edge")
			}
			clause = append(clause, boolform.Var(ei))
		}
		key := clauseKey(clause)
		if !seen[key] {
			seen[key] = true
			dnf.AddClause(clause...)
		}
		return true
	})
	if abort != nil {
		return nil, abort
	}
	if exceeded {
		return nil, phomerr.New(phomerr.CodeLimit, "core: more than %d matches", maxMatches)
	}
	return dnf.Absorb(), nil
}

func clauseKey(vars []boolform.Var) string {
	sorted := append([]boolform.Var(nil), vars...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	b := make([]byte, 0, len(sorted)*3)
	for _, v := range sorted {
		b = append(b, byte(v), byte(v>>8), byte(v>>16))
	}
	return string(b)
}
