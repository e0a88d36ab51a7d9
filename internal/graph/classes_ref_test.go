package graph_test

import (
	"math/rand"
	"testing"

	"phom/internal/gen"
	. "phom/internal/graph"
)

// refInClass is the definitional membership test the memoized class set
// of classInfo must reproduce: each base class checked by walking g, and
// each ⊔-class by materialising every component with InducedSubgraph.
func refInClass(g *Graph, c Class) bool {
	switch c {
	case Class1WP:
		return refIs1WP(g)
	case Class2WP:
		return refIs2WP(g)
	case ClassDWT:
		return refIsDWT(g)
	case ClassPT:
		return g.NumVertices() > 0 && g.NumEdges() == g.NumVertices()-1 && refIsConnected(g)
	case ClassConnected:
		return refIsConnected(g)
	case ClassAll:
		return g.NumVertices() > 0
	case ClassU1WP, ClassU2WP, ClassUDWT, ClassUPT:
		for _, comp := range g.ConnectedComponents() {
			sub, _ := g.InducedSubgraph(comp)
			if !refInClass(sub, c.Base()) {
				return false
			}
		}
		return g.NumVertices() > 0
	}
	return false
}

func refIsConnected(g *Graph) bool {
	return g.NumVertices() > 0 && len(g.ConnectedComponents()) == 1
}

func refIs1WP(g *Graph) bool {
	if g.NumVertices() == 0 {
		return false
	}
	if g.NumVertices() == 1 {
		return g.NumEdges() == 0
	}
	if g.NumEdges() != g.NumVertices()-1 {
		return false
	}
	start := Vertex(-1)
	for v := 0; v < g.NumVertices(); v++ {
		if g.OutDegree(Vertex(v)) > 1 || g.InDegree(Vertex(v)) > 1 {
			return false
		}
		if g.InDegree(Vertex(v)) == 0 {
			if start >= 0 {
				return false
			}
			start = Vertex(v)
		}
	}
	if start < 0 {
		return false
	}
	// With the degree bounds above, the walk from the source covers all
	// vertices iff it takes n−1 steps.
	v, steps := start, 0
	for len(g.OutEdges(v)) == 1 {
		v = g.Edge(g.OutEdges(v)[0]).To
		steps++
		if steps > g.NumVertices() {
			return false
		}
	}
	return steps == g.NumVertices()-1
}

func refIs2WP(g *Graph) bool {
	if g.NumVertices() == 0 {
		return false
	}
	if g.NumVertices() == 1 {
		return g.NumEdges() == 0
	}
	if g.NumEdges() != g.NumVertices()-1 || !refIsConnected(g) {
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.UndirectedDegree(Vertex(v)) > 2 {
			return false
		}
	}
	return true
}

func refIsDWT(g *Graph) bool {
	if g.NumVertices() == 0 || g.NumEdges() != g.NumVertices()-1 || !refIsConnected(g) {
		return false
	}
	for v := 0; v < g.NumVertices(); v++ {
		if g.InDegree(Vertex(v)) > 1 {
			return false
		}
	}
	return true
}

// classCorpus is the gen corpus the class-set tests run over: every
// class at several sizes, plus dense random digraphs (self-loops and
// antiparallel pairs included) and edgeless graphs.
func classCorpus() []*Graph {
	r := rand.New(rand.NewSource(12))
	labels := []Label{"R", "S"}
	out := []*Graph{New(1), New(3)}
	for _, c := range AllClasses {
		for n := 1; n <= 24; n += 1 + n/4 {
			for k := 0; k < 6; k++ {
				out = append(out, gen.RandInClass(r, c, n, labels))
			}
		}
	}
	for k := 0; k < 300; k++ {
		n := 1 + r.Intn(7)
		g := New(n)
		for m := r.Intn(2 * n); m > 0; m-- {
			_ = g.AddEdge(Vertex(r.Intn(n)), Vertex(r.Intn(n)), labels[r.Intn(2)]) // duplicates rejected
		}
		out = append(out, g)
	}
	return out
}

// TestInClassMatchesDefinition: the one-pass class set answers every
// class like the definitional walk over materialised components, and the
// tightest class is sound (every class including it contains g).
func TestInClassMatchesDefinition(t *testing.T) {
	for _, g := range classCorpus() {
		for _, c := range AllClasses {
			if got, want := g.InClass(c), refInClass(g, c); got != want {
				t.Fatalf("InClass(%v) = %v, definition says %v\ng=%v", c, got, want, g)
			}
			if ClassIncluded(g.TightestClass(), c) && !g.InClass(c) {
				t.Fatalf("tightest class %v ⊆ %v, but g ∉ %v\ng=%v", g.TightestClass(), c, c, g)
			}
		}
	}
	if New(0).InClass(ClassAll) || New(0).InClass(ClassU1WP) || New(0).IsConnected() {
		t.Fatal("the empty graph must belong to no class")
	}
}

// TestInClassBeyondTightest pins why InClass is not derived from
// TightestClass: the lattice has no meets, so a←b→c is a DWT (root b)
// and a 2WP, reports 2WP as its tightest class, and is still in DWT and
// ⊔DWT although neither includes 2WP.
func TestInClassBeyondTightest(t *testing.T) {
	g := New(3)
	g.MustAddEdge(1, 0, "R")
	g.MustAddEdge(1, 2, "R")
	if c := g.TightestClass(); c != Class2WP {
		t.Fatalf("tightest class %v, want %v", c, Class2WP)
	}
	for _, c := range []Class{ClassDWT, ClassUDWT} {
		if ClassIncluded(Class2WP, c) || !g.InClass(c) {
			t.Fatalf("a←b→c: InClass(%v) = %v", c, g.InClass(c))
		}
	}
}
