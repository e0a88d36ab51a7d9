package boolform

import (
	"context"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func ratHalfs(n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = big.NewRat(1, 2)
	}
	return out
}

func randProbs(r *rand.Rand, n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		d := int64(1 + r.Intn(8))
		out[i] = big.NewRat(r.Int63n(d+1), d)
	}
	return out
}

func randDNF(r *rand.Rand, n, clauses, width int) *DNF {
	f := NewDNF(n)
	for c := 0; c < clauses; c++ {
		w := 1 + r.Intn(width)
		vars := make([]Var, w)
		for i := range vars {
			vars[i] = Var(r.Intn(n))
		}
		f.AddClause(vars...)
	}
	return f
}

func TestEvalBasics(t *testing.T) {
	f := NewDNF(3)
	f.AddClause(0, 1)
	f.AddClause(2)
	cases := []struct {
		nu   []bool
		want bool
	}{
		{[]bool{true, true, false}, true},
		{[]bool{true, false, false}, false},
		{[]bool{false, false, true}, true},
		{[]bool{false, false, false}, false},
	}
	for _, c := range cases {
		if got := f.Eval(c.nu); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.nu, got, c.want)
		}
	}
}

func TestEmptyAndTrueDNF(t *testing.T) {
	f := NewDNF(2)
	if f.Eval([]bool{true, true}) {
		t.Fatal("empty DNF must be false")
	}
	if f.BruteForceProb(ratHalfs(2)).Sign() != 0 {
		t.Fatal("empty DNF probability must be 0")
	}
	f.AddClause() // empty clause: true
	if !f.Eval([]bool{false, false}) {
		t.Fatal("empty clause must make the DNF true")
	}
	if shannonProb(t, f, ratHalfs(2)).Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("true DNF probability must be 1")
	}
}

func TestClauseNormalization(t *testing.T) {
	f := NewDNF(4)
	f.AddClause(3, 1, 1, 3, 0)
	if len(f.Clauses[0]) != 3 {
		t.Fatalf("clause not deduplicated: %v", f.Clauses[0])
	}
	for i := 1; i < len(f.Clauses[0]); i++ {
		if f.Clauses[0][i-1] >= f.Clauses[0][i] {
			t.Fatalf("clause not sorted: %v", f.Clauses[0])
		}
	}
}

func TestAbsorb(t *testing.T) {
	f := NewDNF(3)
	f.AddClause(0)
	f.AddClause(0, 1)
	f.AddClause(1, 2)
	g := f.Absorb()
	if len(g.Clauses) != 2 {
		t.Fatalf("absorption kept %d clauses, want 2", len(g.Clauses))
	}
	// Equivalence under all valuations.
	for mask := 0; mask < 8; mask++ {
		nu := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
		if f.Eval(nu) != g.Eval(nu) {
			t.Fatalf("absorption changed semantics at %v", nu)
		}
	}
}

func TestKnownProbability(t *testing.T) {
	// x0 ∨ x1 with p0 = 1/2, p1 = 1/3: 1 − (1/2)(2/3) = 2/3.
	f := NewDNF(2)
	f.AddClause(0)
	f.AddClause(1)
	probs := []*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3)}
	want := big.NewRat(2, 3)
	if got := shannonProb(t, f, probs); got.Cmp(want) != 0 {
		t.Fatalf("ShannonProb = %s, want %s", got.RatString(), want.RatString())
	}
	if got := f.BruteForceProb(probs); got.Cmp(want) != 0 {
		t.Fatalf("BruteForceProb = %s, want %s", got.RatString(), want.RatString())
	}
}

// TestShannonMatchesBruteForce is the oracle cross-check on random DNFs.
func TestShannonMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(8)
		f := randDNF(r, n, r.Intn(7), 4)
		probs := randProbs(r, n)
		bf := f.BruteForceProb(probs)
		sh := shannonProb(t, f, probs)
		if bf.Cmp(sh) != 0 {
			t.Fatalf("mismatch on %v: brute=%s shannon=%s", f, bf.RatString(), sh.RatString())
		}
	}
}

// TestAbsorbPreservesSemantics is a quick-check property: Absorb never
// changes the truth value of a DNF.
func TestAbsorbPreservesSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	prop := func(seed int64, masks uint16) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(6)
		f := randDNF(rr, n, rr.Intn(6), 3)
		g := f.Absorb()
		nu := make([]bool, n)
		for i := range nu {
			nu[i] = masks&(1<<uint(i)) != 0
		}
		return f.Eval(nu) == g.Eval(nu)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: r}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestProbabilityMonotone: adding a clause never decreases probability.
func TestProbabilityMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		n := 2 + r.Intn(6)
		f := randDNF(r, n, 1+r.Intn(4), 3)
		probs := randProbs(r, n)
		before := shannonProb(t, f, probs)
		g := &DNF{NumVars: n, Clauses: append([]Clause(nil), f.Clauses...)}
		g.AddClause(Var(r.Intn(n)))
		after := shannonProb(t, g, probs)
		if after.Cmp(before) < 0 {
			t.Fatalf("probability decreased after adding a clause: %s -> %s", before.RatString(), after.RatString())
		}
	}
}

func TestStringRendering(t *testing.T) {
	f := NewDNF(3)
	if f.String() != "false" {
		t.Fatalf("empty DNF renders as %q", f.String())
	}
	f.AddClause(0, 2)
	if f.String() != "(x0∧x2)" {
		t.Fatalf("render = %q", f.String())
	}
}

// shannonProb is ShannonProbContext under a background context, which never
// fires.
func shannonProb(t *testing.T, f *DNF, probs []*big.Rat) *big.Rat {
	t.Helper()
	p, err := f.ShannonProbContext(context.Background(), probs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
