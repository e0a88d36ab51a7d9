package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
)

// ucqCells lists the cells for which SolveUCQ must dispatch a lifted
// PTIME algorithm.
var ucqCells = []struct {
	name    string
	qc, ic  graph.Class
	labeled bool
}{
	{"connected on 2WP labeled", graph.ClassConnected, graph.Class2WP, true},
	{"connected on U2WP labeled", graph.ClassConnected, graph.ClassU2WP, true},
	{"1WP on DWT labeled", graph.Class1WP, graph.ClassDWT, true},
	{"1WP on UDWT labeled", graph.Class1WP, graph.ClassUDWT, true},
	{"any on DWT unlabeled", graph.ClassAll, graph.ClassDWT, false},
	{"any on UDWT unlabeled", graph.ClassAll, graph.ClassUDWT, false},
	{"UDWT on PT unlabeled", graph.ClassUDWT, graph.ClassPT, false},
	{"DWT on UPT unlabeled", graph.ClassDWT, graph.ClassUPT, false},
}

// TestSolveUCQMatchesBruteForce: the lifted algorithms must agree with
// world enumeration of the disjunction on every covered cell.
func TestSolveUCQMatchesBruteForce(t *testing.T) {
	for _, cell := range ucqCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			labels := oneLabel
			if cell.labeled {
				labels = twoLabels
			}
			r := rand.New(rand.NewSource(int64(len(cell.name))))
			for trial := 0; trial < 50; trial++ {
				k := 1 + r.Intn(3)
				qs := make(UCQ, k)
				for i := range qs {
					qs[i] = gen.RandInClass(r, cell.qc, 1+r.Intn(4), labels)
					if qs[i].NumEdges() == 0 {
						qs[i] = gen.RandInClass(r, cell.qc, 2, labels)
					}
				}
				h := gen.RandProb(r, gen.RandInClass(r, cell.ic, 1+r.Intn(8), labels), 0.3)
				res, err := SolveUCQContext(context.Background(), qs, h, &Options{DisableFallback: true})
				if err != nil {
					t.Fatalf("trial %d: lifted algorithm refused: %v", trial, err)
				}
				if !res.Method.PTime() {
					t.Fatalf("trial %d: exponential method %v on lifted cell", trial, res.Method)
				}
				want, err := BruteForceUCQ(qs, h, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Prob.Cmp(want) != 0 {
					t.Fatalf("trial %d: SolveUCQ=%s (via %v) brute=%s\nqs=%v\nh=%v",
						trial, res.Prob.RatString(), res.Method, want.RatString(), qs, h)
				}
			}
		})
	}
}

func TestSolveUCQFallback(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		qs := UCQ{
			gen.RandInClass(r, graph.Class2WP, 2+r.Intn(3), twoLabels),
			gen.RandInClass(r, graph.ClassDWT, 2+r.Intn(3), twoLabels),
		}
		h := gen.RandProb(r, gen.RandInClass(r, graph.ClassDWT, 2+r.Intn(6), twoLabels), 0.3)
		res, err := SolveUCQContext(context.Background(), qs, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := BruteForceUCQ(qs, h, 0)
		if res.Prob.Cmp(want) != 0 {
			t.Fatalf("UCQ fallback mismatch: %s vs %s", res.Prob.RatString(), want.RatString())
		}
	}
}

func TestSolveUCQTrivia(t *testing.T) {
	h := graph.NewProbGraph(graph.Path1WP("R"))
	// Empty union is false.
	res, err := SolveUCQContext(context.Background(), nil, h, nil)
	if err != nil || res.Prob.Sign() != 0 {
		t.Fatalf("empty UCQ: %v %v", res, err)
	}
	// An edgeless disjunct makes the union certain.
	res, err = SolveUCQContext(context.Background(), UCQ{graph.Path1WP("Z"), graph.New(2)}, h, nil)
	if err != nil || res.Prob.Cmp(graph.RatOne) != 0 {
		t.Fatalf("edgeless disjunct: %v %v", res, err)
	}
	// All-mismatched labels give 0.
	res, err = SolveUCQContext(context.Background(), UCQ{graph.Path1WP("Z"), graph.Path1WP("Y")}, h, nil)
	if err != nil || res.Prob.Sign() != 0 || res.Method != MethodLabelMismatch {
		t.Fatalf("label mismatch union: %v %v", res, err)
	}
}

// TestUCQSubsumesSingleQuery: SolveUCQ on a singleton union must equal
// Solve on the query.
func TestUCQSubsumesSingleQuery(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		h := gen.RandProb(r, gen.RandInClass(r, graph.Class2WP, 1+r.Intn(8), twoLabels), 0.3)
		single, err := Solve(q, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		union, err := SolveUCQContext(context.Background(), UCQ{q}, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if single.Prob.Cmp(union.Prob) != 0 {
			t.Fatalf("singleton union differs: %s vs %s", single.Prob.RatString(), union.Prob.RatString())
		}
	}
}

// TestUCQMonotone: adding a disjunct never decreases the probability.
func TestUCQMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		q1 := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		q2 := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		h := gen.RandProb(r, gen.RandInClass(r, graph.Class2WP, 1+r.Intn(8), twoLabels), 0.3)
		p1, err := SolveUCQContext(context.Background(), UCQ{q1}, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		p12, err := SolveUCQContext(context.Background(), UCQ{q1, q2}, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if p12.Prob.Cmp(p1.Prob) < 0 {
			t.Fatalf("union probability decreased: %s -> %s", p1.Prob.RatString(), p12.Prob.RatString())
		}
	}
}

func TestCountWorlds(t *testing.T) {
	// One coin on a two-edge chain; query is the full chain: 1 world.
	g := graph.Path1WP("R", "S")
	h := graph.NewProbGraph(g)
	h.MustSetEdgeProb(0, 1, graph.RatHalf)
	h.MustSetEdgeProb(1, 2, graph.RatHalf)
	count, coins, err := CountWorlds(graph.Path1WP("R", "S"), h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coins != 2 || count.Int64() != 1 {
		t.Fatalf("count=%v coins=%d, want 1 of 2²", count, coins)
	}
	// Reject non-half probabilities.
	h2 := graph.NewProbGraph(g)
	h2.MustSetEdgeProb(0, 1, graph.Rat("1/3"))
	if _, _, err := CountWorlds(graph.Path1WP("R", "S"), h2, nil); err == nil {
		t.Fatal("non-unweighted instance accepted")
	}
}

// TestCountWorldsMatchesDirectEnumeration on random unweighted inputs.
func TestCountWorldsMatchesDirectEnumeration(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		q := gen.RandInClass(r, graph.ClassConnected, 1+r.Intn(4), twoLabels)
		inst := gen.RandInClass(r, graph.ClassAll, 1+r.Intn(6), twoLabels)
		h := graph.NewProbGraph(inst)
		for i := 0; i < inst.NumEdges(); i++ {
			if r.Intn(2) == 0 {
				if err := h.SetProb(i, graph.RatHalf); err != nil {
					t.Fatal(err)
				}
			}
		}
		count, coins, err := CountWorlds(q, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Direct: count satisfying assignments of the coins.
		want := big.NewInt(0)
		uncertain := h.UncertainEdges()
		keep := make([]bool, inst.NumEdges())
		for i := range keep {
			keep[i] = h.Prob(i).Cmp(graph.RatOne) == 0
		}
		var rec func(i int)
		rec = func(i int) {
			if i == len(uncertain) {
				if graph.HasHomomorphism(q, inst.SubgraphKeeping(keep)) {
					want.Add(want, big.NewInt(1))
				}
				return
			}
			keep[uncertain[i]] = true
			rec(i + 1)
			keep[uncertain[i]] = false
			rec(i + 1)
		}
		rec(0)
		if count.Cmp(want) != 0 || coins != len(uncertain) {
			t.Fatalf("CountWorlds=%v/2^%d, direct=%v/2^%d", count, coins, want, len(uncertain))
		}
	}
}
