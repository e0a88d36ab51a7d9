package graphio

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"phom/internal/graph"
)

func TestCanonicalGraphOrderIndependent(t *testing.T) {
	a := graph.New(3)
	a.MustAddEdge(0, 1, "R")
	a.MustAddEdge(1, 2, "S")
	b := graph.New(3)
	b.MustAddEdge(1, 2, "S")
	b.MustAddEdge(0, 1, "R")
	if CanonicalGraph(a) != CanonicalGraph(b) {
		t.Fatalf("insertion order changed canonical form:\n%s\n%s", CanonicalGraph(a), CanonicalGraph(b))
	}
}

func TestCanonicalGraphDistinguishes(t *testing.T) {
	base := graph.New(3)
	base.MustAddEdge(0, 1, "R")

	moreVertices := graph.New(4)
	moreVertices.MustAddEdge(0, 1, "R")

	otherLabel := graph.New(3)
	otherLabel.MustAddEdge(0, 1, "S")

	otherEdge := graph.New(3)
	otherEdge.MustAddEdge(1, 0, "R")

	for name, g := range map[string]*graph.Graph{
		"vertex count": moreVertices,
		"label":        otherLabel,
		"direction":    otherEdge,
	} {
		if CanonicalGraph(base) == CanonicalGraph(g) {
			t.Errorf("%s not reflected in canonical form %q", name, CanonicalGraph(g))
		}
	}
}

func TestCanonicalProbGraphNormalizesRationals(t *testing.T) {
	mk := func(p string) *graph.ProbGraph {
		g := graph.New(2)
		g.MustAddEdge(0, 1, "R")
		pg := graph.NewProbGraph(g)
		pg.MustSetEdgeProb(0, 1, graph.Rat(p))
		return pg
	}
	if CanonicalProbGraph(mk("0.5")) != CanonicalProbGraph(mk("1/2")) {
		t.Fatal("equal rationals canonicalize differently")
	}
	if CanonicalProbGraph(mk("1/2")) == CanonicalProbGraph(mk("1/3")) {
		t.Fatal("distinct probabilities canonicalize identically")
	}
}

func TestCanonicalProbVsPlainGraphDistinct(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, "R")
	if CanonicalGraph(g) == CanonicalProbGraph(graph.NewProbGraph(g)) {
		t.Fatal("graph and prob-graph canonical forms collide")
	}
}

func TestCanonicalGraphQuotesLabels(t *testing.T) {
	// A label containing the serialization separators must not collide
	// with a structurally different graph.
	tricky := graph.New(3)
	tricky.MustAddEdge(0, 1, `R";2>1:"S`)
	plain := graph.New(3)
	plain.MustAddEdge(0, 1, "R")
	plain.MustAddEdge(2, 1, "S")
	if CanonicalGraph(tricky) == CanonicalGraph(plain) {
		t.Fatal("label injection collides with a real edge list")
	}
}

func TestJobKey(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, "R")
	inst := CanonicalProbGraph(graph.NewProbGraph(g))
	q := CanonicalGraph(g)

	k1 := JobKey([]string{q}, inst, "opts")
	if len(k1) != 64 || strings.ToLower(k1) != k1 {
		t.Fatalf("key %q is not lowercase sha256 hex", k1)
	}
	if k1 != JobKey([]string{q}, inst, "opts") {
		t.Fatal("JobKey not deterministic")
	}
	if k1 == JobKey([]string{q}, inst, "opts2") {
		t.Fatal("options fingerprint ignored")
	}
	if k1 == JobKey([]string{q, q}, inst, "opts") {
		t.Fatal("duplicate disjunct ignored")
	}
	if k1 == JobKey(nil, inst, "opts") {
		t.Fatal("missing query ignored")
	}
	// Length prefixes prevent concatenation ambiguity between sections.
	if JobKey([]string{"a"}, "b", "c") == JobKey([]string{"ab"}, "", "c") {
		t.Fatal("section boundaries are ambiguous")
	}
}

// TestCanonicalEdgeOrderSortsByEndpoints: the per-vertex order equals a
// global sort of the edge indices by (from, to), on random digraphs with
// shuffled insertion order and high out-degree.
func TestCanonicalEdgeOrderSortsByEndpoints(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		g := graph.New(n)
		for k := r.Intn(4 * n); k > 0; k-- {
			_ = g.AddEdge(graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n)), "R") // duplicates rejected
		}
		want := make([]int, g.NumEdges())
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool {
			ea, eb := g.Edge(want[a]), g.Edge(want[b])
			return ea.From < eb.From || (ea.From == eb.From && ea.To < eb.To)
		})
		if got := CanonicalEdgeOrder(g); !slices.Equal(got, want) {
			t.Fatalf("order %v, want %v on %v", got, want, g)
		}
	}
}
