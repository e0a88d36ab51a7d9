package core

import (
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/plan"
)

// TestXProperty2WPCompileScalesLinearly is the deterministic guard on
// the ⊔2WP compile cliff: with a fixed 3-edge walk needle, the program
// compiled for a 4096-edge ⊔2WP instance has at most twice the ops per
// edge of the 256-edge one, and no lineage clause is wider than the
// needle. It counts ops and clause widths, not time, so it is stable on
// shared machines.
func TestXProperty2WPCompileScalesLinearly(t *testing.T) {
	needle := graph.Path2WP(graph.Fwd("R"), graph.Bwd("S"), graph.Fwd("R"))
	rs := []graph.Label{"R", "S"}
	opsPerEdge := make(map[int]float64)
	for _, m := range []int{256, 4096} {
		r := rand.New(rand.NewSource(int64(m)))
		// Four path components of m/4 edges each.
		inst := gen.RandUnion(r, 4, func(r *rand.Rand) *graph.Graph {
			return gen.Rand2WP(r, m/4+1, rs)
		})
		h := gen.RandProb(r, inst, 0.5)
		cp, err := Compile(needle, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if meth, _ := cp.Method(); meth != MethodXProperty2WP {
			t.Fatalf("m=%d routed to %v", m, meth)
		}
		opsPerEdge[m] = float64(cp.Program().NumOps()) / float64(m)

		tree, err := plan.ConnectedOn2WP(needle, h)
		if err != nil {
			t.Fatal(err)
		}
		clauses := 0
		for _, part := range tree.(plan.Components).Parts {
			for _, c := range part.(plan.Interval).System.Clauses {
				clauses++
				if w := c.Hi - c.Lo + 1; w > needle.NumEdges() {
					t.Fatalf("m=%d: clause %v is %d edges wide", m, c, w)
				}
			}
		}
		if clauses == 0 {
			t.Fatalf("m=%d: the needle never matches; the guard would test nothing", m)
		}
	}
	if small, large := opsPerEdge[256], opsPerEdge[4096]; large > 2*small || small > 2*large {
		t.Fatalf("ops per edge %.1f at 256 edges vs %.1f at 4096", small, large)
	}
	t.Logf("ops per edge: %.1f at 256, %.1f at 4096", opsPerEdge[256], opsPerEdge[4096])
}
