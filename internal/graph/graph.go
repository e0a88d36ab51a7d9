package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Vertex identifies a vertex of a Graph. Vertices of a graph with n
// vertices are exactly 0 … n−1.
type Vertex int

// Label is an edge label drawn from the finite alphabet σ. The unlabeled
// setting of the paper corresponds to every edge carrying the same label.
type Label string

// Unlabeled is the conventional single label used for graphs in the
// unlabeled setting (|σ| = 1).
const Unlabeled Label = "_"

// Edge is a directed labeled edge u → v.
type Edge struct {
	From  Vertex
	To    Vertex
	Label Label
}

func (e Edge) String() string {
	return fmt.Sprintf("%d -%s-> %d", e.From, e.Label, e.To)
}

type pair struct{ from, to Vertex }

// Graph is a finite directed graph with labeled edges and no multi-edges.
// The zero value is not usable; create graphs with New.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // vertex -> indices into edges
	in    [][]int
	index map[pair]int
	// classes memoizes classInfo (0 = not yet computed): the set of
	// classes g belongs to and its tightest class. Classification walks
	// the whole graph, and serving paths ask for it once per evaluation
	// of a structure that never changes — AddVertex/AddEdge reset it,
	// everything else leaves the graph immutable. Atomic so concurrent
	// readers of a shared immutable graph (the lanes of a multi-vector
	// reweight) race benignly: every writer stores the same value.
	classes atomic.Uint32
}

// New returns a graph with n isolated vertices (n ≥ 1; the paper requires
// a non-empty vertex set, but n = 0 is tolerated for intermediate
// construction and rejected by validation where it matters).
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{
		n:     n,
		out:   make([][]int, n),
		in:    make([][]int, n),
		index: make(map[pair]int),
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddVertex appends a fresh isolated vertex and returns it.
func (g *Graph) AddVertex() Vertex {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.n++
	g.classes.Store(0)
	return Vertex(g.n - 1)
}

// AddEdge inserts the edge from −label→ to. It fails if an endpoint is out
// of range, if the edge is a self-loop on the same pair already present,
// or if the ordered pair (from, to) already carries an edge (the paper's
// graphs have no multi-edges: λ is a function on E).
func (g *Graph) AddEdge(from, to Vertex, label Label) error {
	if from < 0 || int(from) >= g.n || to < 0 || int(to) >= g.n {
		return fmt.Errorf("graph: edge %d->%d out of range (n=%d)", from, to, g.n)
	}
	if _, dup := g.index[pair{from, to}]; dup {
		return fmt.Errorf("graph: duplicate edge %d->%d (multi-edges are not allowed)", from, to)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{From: from, To: to, Label: label})
	g.out[from] = append(g.out[from], idx)
	g.in[to] = append(g.in[to], idx)
	g.index[pair{from, to}] = idx
	g.classes.Store(0)
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for literals in
// tests and examples.
func (g *Graph) MustAddEdge(from, to Vertex, label Label) {
	if err := g.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// Edge returns the i-th edge in insertion order.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Edges returns a copy of the edge list in insertion order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// EdgeIndex returns the index of the edge (from, to) and whether it exists.
func (g *Graph) EdgeIndex(from, to Vertex) (int, bool) {
	i, ok := g.index[pair{from, to}]
	return i, ok
}

// HasEdge reports whether the edge (from, to) exists, and its label.
func (g *Graph) HasEdge(from, to Vertex) (Label, bool) {
	if i, ok := g.index[pair{from, to}]; ok {
		return g.edges[i].Label, true
	}
	return "", false
}

// OutEdges returns the indices of edges leaving v.
func (g *Graph) OutEdges(v Vertex) []int { return g.out[v] }

// InEdges returns the indices of edges entering v.
func (g *Graph) InEdges(v Vertex) []int { return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v Vertex) int { return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v Vertex) int { return len(g.in[v]) }

// Neighbors returns the sorted distinct neighbors of v in the underlying
// undirected graph (v itself is included only if v has a self-loop).
func (g *Graph) Neighbors(v Vertex) []Vertex {
	set := map[Vertex]struct{}{}
	for _, i := range g.out[v] {
		set[g.edges[i].To] = struct{}{}
	}
	for _, i := range g.in[v] {
		set[g.edges[i].From] = struct{}{}
	}
	out := make([]Vertex, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UndirectedDegree returns the degree of v in the underlying undirected
// graph: the number of distinct neighbors (antiparallel edge pairs count
// once).
func (g *Graph) UndirectedDegree(v Vertex) int { return len(g.Neighbors(v)) }

// Labels returns the sorted set of labels used by edges of g.
func (g *Graph) Labels() []Label {
	set := map[Label]struct{}{}
	for _, e := range g.edges {
		set[e.Label] = struct{}{}
	}
	out := make([]Label, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsUnlabeled reports whether g uses at most one distinct label.
func (g *Graph) IsUnlabeled() bool { return len(g.Labels()) <= 1 }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := New(g.n)
	for _, e := range g.edges {
		h.MustAddEdge(e.From, e.To, e.Label)
	}
	return h
}

// WithoutEdge returns a fresh graph equal to g with the i-th edge
// removed; the remaining edges keep their relative insertion order
// (edge j > i becomes edge j−1). Graphs have no in-place edge removal
// by design — a removal renumbers the edge list, and every consumer of
// a *Graph (plans, caches, concurrent solves) relies on a published
// graph never mutating structurally — so removal is rebuild-as-copy.
// The copy also starts with a fresh class memo.
func (g *Graph) WithoutEdge(i int) *Graph {
	if i < 0 || i >= len(g.edges) {
		panic(fmt.Sprintf("graph: WithoutEdge index %d out of range (m=%d)", i, len(g.edges)))
	}
	h := New(g.n)
	for j, e := range g.edges {
		if j != i {
			h.MustAddEdge(e.From, e.To, e.Label)
		}
	}
	return h
}

// SubgraphKeeping returns the subgraph of g (same vertex set, per the
// paper's convention) whose edges are exactly those of g with keep[i]
// true, indexed by g's edge order.
func (g *Graph) SubgraphKeeping(keep []bool) *Graph {
	if len(keep) != len(g.edges) {
		panic("graph: keep mask length mismatch")
	}
	h := New(g.n)
	for i, e := range g.edges {
		if keep[i] {
			h.MustAddEdge(e.From, e.To, e.Label)
		}
	}
	return h
}

// Reverse returns the graph with every edge reversed (labels kept).
func (g *Graph) Reverse() *Graph {
	h := New(g.n)
	for _, e := range g.edges {
		h.MustAddEdge(e.To, e.From, e.Label)
	}
	return h
}

// String renders the graph compactly, for debugging and error messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph{n=%d;", g.n)
	for i, e := range g.edges {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(' ')
		b.WriteString(e.String())
	}
	b.WriteString(" }")
	return b.String()
}

// Path1WP builds the one-way path a₀ −labels[0]→ a₁ −labels[1]→ … with
// len(labels)+1 vertices. An empty label list yields the single-vertex
// graph, which is the 1WP of length 0.
func Path1WP(labels ...Label) *Graph {
	g := New(len(labels) + 1)
	for i, l := range labels {
		g.MustAddEdge(Vertex(i), Vertex(i+1), l)
	}
	return g
}

// UnlabeledPath returns the unlabeled 1WP →^m with m edges.
func UnlabeledPath(m int) *Graph {
	labels := make([]Label, m)
	for i := range labels {
		labels[i] = Unlabeled
	}
	return Path1WP(labels...)
}

// Step is one edge of a two-way path description: the label, and whether
// the edge points forward (aᵢ → aᵢ₊₁) or backward (aᵢ ← aᵢ₊₁).
type Step struct {
	Label   Label
	Forward bool
}

// Fwd and Bwd construct Steps; they keep 2WP literals readable.
func Fwd(l Label) Step { return Step{Label: l, Forward: true} }

// Bwd constructs a backward step (see Fwd).
func Bwd(l Label) Step { return Step{Label: l, Forward: false} }

// Path2WP builds the two-way path a₀ − a₁ − … following steps.
func Path2WP(steps ...Step) *Graph {
	g := New(len(steps) + 1)
	for i, s := range steps {
		if s.Forward {
			g.MustAddEdge(Vertex(i), Vertex(i+1), s.Label)
		} else {
			g.MustAddEdge(Vertex(i+1), Vertex(i), s.Label)
		}
	}
	return g
}

// DisjointUnion returns the disjoint union of the given graphs, with the
// vertices of each part shifted after those of the previous parts, plus
// the vertex offset of each part.
func DisjointUnion(parts ...*Graph) (*Graph, []Vertex) {
	total := 0
	offsets := make([]Vertex, len(parts))
	for i, p := range parts {
		offsets[i] = Vertex(total)
		total += p.n
	}
	g := New(total)
	for i, p := range parts {
		off := offsets[i]
		for _, e := range p.edges {
			g.MustAddEdge(e.From+off, e.To+off, e.Label)
		}
	}
	return g, offsets
}
