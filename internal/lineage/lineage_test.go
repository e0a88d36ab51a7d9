package lineage

import (
	"context"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"phom/internal/betadnf"
	"phom/internal/boolform"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/hypergraph"
)

var twoLabels = []graph.Label{"R", "S"}

// dnfHypergraph views a DNF as the hypergraph of Definition 4.8.
func dnfHypergraph(f *boolform.DNF) *hypergraph.Hypergraph {
	h := hypergraph.New(f.NumVars)
	for _, c := range f.Clauses {
		if len(c) == 0 {
			continue
		}
		vs := make([]int, len(c))
		for i, v := range c {
			vs[i] = int(v)
		}
		h.AddEdge(vs...)
	}
	return h
}

// worldEval checks a lineage DNF against the definition: it must be true
// on exactly the worlds admitting a homomorphism (Definition 4.6).
func worldEval(t *testing.T, q *graph.Graph, h *graph.ProbGraph, dnf *boolform.DNF) {
	t.Helper()
	ne := h.G.NumEdges()
	if ne > 14 {
		return
	}
	nu := make([]bool, ne)
	for mask := 0; mask < 1<<uint(ne); mask++ {
		for i := 0; i < ne; i++ {
			nu[i] = mask&(1<<uint(i)) != 0
		}
		world := h.G.SubgraphKeeping(nu)
		want := graph.HasHomomorphism(q, world)
		if got := dnf.Eval(nu); got != want {
			t.Fatalf("lineage wrong at world %v: dnf=%v hom=%v\nq=%v\nh=%v\ndnf=%v",
				nu, got, want, q, h.G, dnf)
		}
	}
}

func TestPath1WPOnDWTLineage(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		q := gen.Rand1WP(r, 2+r.Intn(3), twoLabels)
		inst := gen.RandDWT(r, 1+r.Intn(9), twoLabels)
		h := gen.RandProb(r, inst, 0.3)
		lin, err := Path1WPOnDWT(q, h)
		if err != nil {
			t.Fatal(err)
		}
		// The lineage captures homomorphism on every world.
		worldEval(t, q, h, lin.DNF)
		// The lineage is β-acyclic (§4.2: eliminable bottom-up).
		if !dnfHypergraph(lin.DNF).IsBetaAcyclic() {
			t.Fatalf("Prop 4.10 lineage not β-acyclic: %v", lin.DNF)
		}
		// The chain system agrees with the generic DNF probability.
		probs := make([]*big.Rat, h.G.NumEdges())
		for i := range probs {
			probs[i] = h.Prob(i)
		}
		want := shannonProb(t, lin.DNF, probs)
		got, err := lin.System.Prob(lin.Probs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("chain system %s vs DNF %s", got.RatString(), want.RatString())
		}
	}
}

func TestPath1WPOnDWTRejects(t *testing.T) {
	h := graph.NewProbGraph(gen.RandDWT(rand.New(rand.NewSource(2)), 4, twoLabels))
	if _, err := Path1WPOnDWT(graph.Path2WP(graph.Fwd("R"), graph.Bwd("R")), h); err == nil {
		t.Fatal("2WP query accepted")
	}
	if _, err := Path1WPOnDWT(graph.Path1WP(), h); err == nil {
		t.Fatal("edgeless query accepted")
	}
	cyc := graph.New(2)
	cyc.MustAddEdge(0, 1, "R")
	cyc.MustAddEdge(1, 0, "R")
	if _, err := Path1WPOnDWT(graph.Path1WP("R"), graph.NewProbGraph(cyc)); err == nil {
		t.Fatal("non-DWT instance accepted")
	}
}

func TestPathOrder(t *testing.T) {
	h := graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("T"))
	order, edges, err := PathOrder(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || len(edges) != 3 {
		t.Fatalf("order=%v edges=%v", order, edges)
	}
	if order[0] != 0 && order[0] != 3 {
		t.Fatalf("walk must start at an endpoint, got %v", order)
	}
	// Each consecutive pair must be joined by the listed edge.
	for i := 0; i < 3; i++ {
		e := h.Edge(edges[i])
		a, b := order[i], order[i+1]
		if !((e.From == a && e.To == b) || (e.From == b && e.To == a)) {
			t.Fatalf("edge %v does not join %v and %v", e, a, b)
		}
	}
}

func TestConnectedOn2WPLineage(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		if q.NumEdges() == 0 {
			continue
		}
		inst := gen.Rand2WP(r, 1+r.Intn(9), twoLabels)
		h := gen.RandProb(r, inst, 0.3)
		lin, err := ConnectedOn2WP(q, h)
		if err != nil {
			t.Fatal(err)
		}
		worldEval(t, q, h, lin.DNF)
		if !dnfHypergraph(lin.DNF).IsBetaAcyclic() {
			t.Fatalf("Prop 4.11 lineage not β-acyclic: %v", lin.DNF)
		}
		probs := make([]*big.Rat, h.G.NumEdges())
		for i := range probs {
			probs[i] = h.Prob(i)
		}
		want := shannonProb(t, lin.DNF, probs)
		got, err := lin.System.Prob(lin.Probs)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("interval system %s vs DNF %s\nq=%v\nh=%v", got.RatString(), want.RatString(), q, h.G)
		}
	}
}

func TestConnectedOn2WPRejects(t *testing.T) {
	h := graph.NewProbGraph(graph.Path2WP(graph.Fwd("R")))
	disc, _ := graph.DisjointUnion(graph.Path1WP("R"), graph.Path1WP("R"))
	if _, err := ConnectedOn2WP(disc, h); err == nil {
		t.Fatal("disconnected query accepted")
	}
	tree := graph.New(4)
	tree.MustAddEdge(0, 1, "R")
	tree.MustAddEdge(0, 2, "R")
	tree.MustAddEdge(0, 3, "R")
	if _, err := ConnectedOn2WP(graph.Path1WP("R"), graph.NewProbGraph(tree)); err == nil {
		t.Fatal("branching instance accepted")
	}
}

// bruteMinimalWindows is the test oracle for ConnectedOn2WP's clause
// set: it decides q ⇝ H[order[i..j]] for every window with the
// brute-force homomorphism search on the induced subgraph, and keeps the
// windows that match while neither one-shorter window inside them does
// (windows matching is upward closed, so that is inclusion-minimality).
func bruteMinimalWindows(q *graph.Graph, h *graph.Graph) []betadnf.Interval {
	order, _, err := PathOrder(h)
	if err != nil {
		panic(err)
	}
	n := len(order)
	match := func(i, j int) bool {
		if i >= j {
			return false // q has an edge; a single vertex has none
		}
		sub, _ := h.InducedSubgraph(order[i : j+1])
		return graph.HasHomomorphism(q, sub)
	}
	var out []betadnf.Interval
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if match(i, j) && !match(i+1, j) && !match(i, j-1) {
				out = append(out, betadnf.Interval{Lo: i, Hi: j - 1})
			}
		}
	}
	return out
}

// checkMinimalWindows asserts ConnectedOn2WP's contract on one input:
// the clauses are exactly the oracle's inclusion-minimal windows, no
// wider than |E(q)|, the DNF lists the same edges, and the interval
// system's probability is RatString-identical to the DNF's Shannon
// probability.
func checkMinimalWindows(t *testing.T, q *graph.Graph, h *graph.ProbGraph) {
	t.Helper()
	lin, err := ConnectedOn2WP(q, h)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMinimalWindows(q, h.G)
	if !slices.Equal(lin.System.Clauses, want) {
		t.Fatalf("clauses %v, minimal windows %v\nq=%v\nh=%v", lin.System.Clauses, want, q, h.G)
	}
	if len(lin.DNF.Clauses) != len(want) {
		t.Fatalf("%d DNF clauses for %d windows", len(lin.DNF.Clauses), len(want))
	}
	for _, c := range lin.System.Clauses {
		if w := c.Hi - c.Lo + 1; w > q.NumEdges() {
			t.Fatalf("clause %v is %d edges wide, query has %d", c, w, q.NumEdges())
		}
	}
	want0 := shannonProb(t, lin.DNF, h.Probs())
	got, err := lin.System.Prob(lin.Probs)
	if err != nil {
		t.Fatal(err)
	}
	if got.RatString() != want0.RatString() {
		t.Fatalf("interval system %s vs DNF %s\nq=%v\nh=%v", got.RatString(), want0.RatString(), q, h.G)
	}
}

// TestConnectedOn2WPMinimalWindows: the bounded sweep emits exactly the
// inclusion-minimal windows on random connected queries and 2WPs, with
// a single label (so windows overlap heavily) and with two.
func TestConnectedOn2WPMinimalWindows(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		labels := twoLabels
		if trial%2 == 0 {
			labels = twoLabels[:1]
		}
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(5), labels)
		if q.NumEdges() == 0 {
			continue
		}
		inst := gen.Rand2WP(r, 1+r.Intn(20), labels)
		checkMinimalWindows(t, q, gen.RandProb(r, inst, 0.5))
	}
}

// FuzzConnectedOn2WPLineage drives checkMinimalWindows with a random
// connected query of at most 5 edges and a random 2WP of at most 24
// edges, both drawn from the fuzzed seed and sizes.
func FuzzConnectedOn2WPLineage(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(12), false)
	f.Add(int64(7), uint8(5), uint8(24), true)
	f.Add(int64(42), uint8(1), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, qSize, hSize uint8, oneLabel bool) {
		r := rand.New(rand.NewSource(seed))
		labels := twoLabels
		if oneLabel {
			labels = twoLabels[:1]
		}
		q := gen.RandInClass(r, graph.ClassConnected, 1+int(qSize)%5, labels)
		if q.NumEdges() == 0 || q.NumEdges() > 5 {
			return
		}
		inst := gen.Rand2WP(r, 1+int(hSize)%25, labels)
		checkMinimalWindows(t, q, gen.RandProb(r, inst, 0.5))
	})
}

// shannonProb is ShannonProbContext under a background context, which never
// fires.
func shannonProb(t *testing.T, f *boolform.DNF, probs []*big.Rat) *big.Rat {
	t.Helper()
	p, err := f.ShannonProbContext(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
