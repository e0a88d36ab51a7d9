package lineage

import (
	"fmt"
	"math/big"

	"phom/internal/betadnf"
	"phom/internal/boolform"
	"phom/internal/graph"
	"phom/internal/xprop"
)

// ChainLineage is the lineage of a 1WP query on a DWT instance, in both
// generic DNF form (over instance edge indices) and the chain-system form
// consumed by the PTIME evaluator.
type ChainLineage struct {
	DNF        *boolform.DNF        // variables: instance edge indices
	System     *betadnf.ChainSystem // nodes: instance vertices
	Probs      []*big.Rat           // per node: probability of its parent edge
	ParentEdge []int                // per node: instance edge index of its parent edge; −1 for roots
}

// Path1WPOnDWT builds the lineage of the 1WP query q on the DWT instance
// h (Proposition 4.10). The query must have at least one edge.
func Path1WPOnDWT(q *graph.Graph, h *graph.ProbGraph) (*ChainLineage, error) {
	labels, ok := pathLabels(q)
	if !ok {
		return nil, fmt.Errorf("lineage: query is not a 1WP: %v", q)
	}
	m := len(labels)
	if m == 0 {
		return nil, fmt.Errorf("lineage: edgeless 1WP query has trivial lineage")
	}
	g := h.G
	if !g.IsDWT() {
		return nil, fmt.Errorf("lineage: instance is not a DWT: %v", g)
	}
	n := g.NumVertices()
	parent := make([]int, n)
	parentEdge := make([]int, n)
	probs := make([]*big.Rat, n)
	for v := 0; v < n; v++ {
		parent[v] = -1
		parentEdge[v] = -1
		probs[v] = graph.RatOne
		if in := g.InEdges(graph.Vertex(v)); len(in) == 1 {
			e := g.Edge(in[0])
			parent[v] = int(e.From)
			parentEdge[v] = in[0]
			probs[v] = h.Prob(in[0])
		}
	}
	chainLen := make([]int, n)
	dnf := boolform.NewDNF(g.NumEdges())
	for v := 0; v < n; v++ {
		// Candidate minimal match: the downward path of m edges ending at
		// v; labels must read R1 … Rm from top to bottom.
		clause := make([]boolform.Var, 0, m)
		cur := v
		ok := true
		for i := m - 1; i >= 0; i-- {
			ei := parentEdge[cur]
			if ei < 0 || g.Edge(ei).Label != labels[i] {
				ok = false
				break
			}
			clause = append(clause, boolform.Var(ei))
			cur = parent[cur]
		}
		if ok {
			chainLen[v] = m
			dnf.AddClause(clause...)
		}
	}
	return &ChainLineage{
		DNF:        dnf,
		System:     &betadnf.ChainSystem{Parent: parent, ChainLen: chainLen},
		Probs:      probs,
		ParentEdge: parentEdge,
	}, nil
}

// pathLabels returns the label sequence R1 … Rm of a 1WP query, following
// the unique walk from its source.
func pathLabels(q *graph.Graph) ([]graph.Label, bool) {
	if !q.Is1WP() {
		return nil, false
	}
	if q.NumVertices() == 1 {
		return nil, true
	}
	var start graph.Vertex = -1
	for v := 0; v < q.NumVertices(); v++ {
		if q.InDegree(graph.Vertex(v)) == 0 {
			start = graph.Vertex(v)
			break
		}
	}
	var labels []graph.Label
	v := start
	for len(q.OutEdges(v)) == 1 {
		e := q.Edge(q.OutEdges(v)[0])
		labels = append(labels, e.Label)
		v = e.To
	}
	return labels, true
}

// IntervalLineage is the lineage of a connected query on a 2WP instance:
// the generic DNF (over instance edge indices) plus the interval-system
// form over edges in path order.
type IntervalLineage struct {
	DNF    *boolform.DNF           // variables: instance edge indices
	System *betadnf.IntervalSystem // variables: path positions 0 … n−2
	Probs  []*big.Rat              // per position
	EdgeAt []int                   // path position → instance edge index
}

// PathOrder returns the vertices of a 2WP instance in path order
// (starting from the endpoint with the smaller vertex id, for
// determinism) and, per position i, the instance edge index linking
// position i to i+1.
func PathOrder(g *graph.Graph) ([]graph.Vertex, []int, error) {
	if !g.Is2WP() {
		return nil, nil, fmt.Errorf("lineage: instance is not a 2WP: %v", g)
	}
	n := g.NumVertices()
	if n == 1 {
		return []graph.Vertex{0}, nil, nil
	}
	start := graph.Vertex(-1)
	for v := 0; v < n; v++ {
		if g.UndirectedDegree(graph.Vertex(v)) == 1 {
			start = graph.Vertex(v)
			break
		}
	}
	order := make([]graph.Vertex, 0, n)
	edges := make([]int, 0, n-1)
	prev := graph.Vertex(-1)
	cur := start
	for {
		order = append(order, cur)
		next := graph.Vertex(-1)
		for _, u := range g.Neighbors(cur) {
			if u != prev {
				next = u
				break
			}
		}
		if next < 0 {
			break
		}
		if ei, ok := g.EdgeIndex(cur, next); ok {
			edges = append(edges, ei)
		} else if ei, ok := g.EdgeIndex(next, cur); ok {
			edges = append(edges, ei)
		}
		prev, cur = cur, next
	}
	if len(order) != n {
		return nil, nil, fmt.Errorf("lineage: 2WP walk covered %d of %d vertices", len(order), n)
	}
	return order, edges, nil
}

// ConnectedOn2WP builds the lineage of the connected query q on the 2WP
// instance h (Proposition 4.11). The query must have at least one edge.
//
// The clauses are exactly the inclusion-minimal windows: subpaths [i, j]
// (path positions, i.e. the edges at positions i … j−1) with
// q ⇝ subpath and q ⇝̸ any strictly smaller subpath. The image of a
// connected query is a connected subpath of at most |E(q)| edges, so a
// minimal window spans at most |E(q)| edges and no wider window is
// probed. The whole construction is linear in |H| for a fixed query.
func ConnectedOn2WP(q *graph.Graph, h *graph.ProbGraph) (*IntervalLineage, error) {
	if !q.IsConnected() {
		return nil, fmt.Errorf("lineage: query is not connected: %v", q)
	}
	if q.NumEdges() == 0 {
		return nil, fmt.Errorf("lineage: edgeless query has trivial lineage")
	}
	order, edgeAt, err := PathOrder(h.G)
	if err != nil {
		return nil, err
	}
	n := len(order)
	dnf := boolform.NewDNF(h.G.NumEdges())
	sys := &betadnf.IntervalSystem{NumVars: n - 1}
	probs := make([]*big.Rat, n-1)
	for i := range probs {
		probs[i] = h.Prob(edgeAt[i])
	}
	// end[i] is the smallest j with q ⇝ [i, j] when that window spans
	// at most k edges, and −1 otherwise. Homomorphism into [i, j] implies
	// homomorphism into every window containing it, so the true minimal
	// end is nondecreasing in i and one pointer j sweeps the path once:
	// every probe either advances j or moves on to the next i. A failed
	// bounded search at i leaves j = i+k+1, which is also a lower bound
	// for the end at i+1.
	k := q.NumEdges()
	end := make([]int, n)
	j := 0
	for i := 0; i < n; i++ {
		end[i] = -1
		if j <= i {
			j = i + 1 // q has an edge, so a window spans at least one
		}
		for ; j < n && j-i <= k; j++ {
			if windowMatches(q, h.G, order, edgeAt, i, j) {
				end[i] = j
				break
			}
		}
	}
	// [i, end[i]] is minimal unless [i+1, end[i]] also matches, and since
	// end[i+1] ≥ end[i] that happens exactly when the two ends coincide.
	for i := 0; i < n; i++ {
		if end[i] < 0 || (i+1 < n && end[i+1] == end[i]) {
			continue
		}
		sys.Clauses = append(sys.Clauses, betadnf.Interval{Lo: i, Hi: end[i] - 1})
		clause := make([]boolform.Var, 0, end[i]-i)
		for p := i; p < end[i]; p++ {
			clause = append(clause, boolform.Var(edgeAt[p]))
		}
		dnf.AddClause(clause...)
	}
	return &IntervalLineage{DNF: dnf, System: sys, Probs: probs, EdgeAt: edgeAt}, nil
}

// windowMatches decides q ⇝ H[order[i..j]] using the X-property
// algorithm: the subpath trivially has the X-property w.r.t. the order
// a_i < … < a_j (§4.2). The window graph is built from the path edges
// edgeAt[i..j−1] alone, so a probe costs O(j−i), not O(|H|).
func windowMatches(q, g *graph.Graph, order []graph.Vertex, edgeAt []int, i, j int) bool {
	w := graph.New(j - i + 1)
	for p := i; p < j; p++ {
		e := g.Edge(edgeAt[p])
		a, b := graph.Vertex(p-i), graph.Vertex(p-i+1)
		if e.From != order[p] {
			a, b = b, a
		}
		w.MustAddEdge(a, b, e.Label)
	}
	return xprop.HasHomomorphism(q, w, xprop.IdentityOrder(j-i+1))
}
