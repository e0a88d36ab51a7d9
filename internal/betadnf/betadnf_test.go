package betadnf

import (
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/boolform"
)

func randProbs(r *rand.Rand, n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		d := int64(1 + r.Intn(8))
		out[i] = big.NewRat(r.Int63n(d+1), d)
	}
	return out
}

// intervalToDNF converts an interval system to a generic DNF for the
// Shannon oracle.
func intervalToDNF(s *IntervalSystem) *boolform.DNF {
	f := boolform.NewDNF(s.NumVars)
	for _, c := range s.Clauses {
		var vars []boolform.Var
		for v := c.Lo; v <= c.Hi; v++ {
			vars = append(vars, boolform.Var(v))
		}
		f.AddClause(vars...)
	}
	return f
}

func TestIntervalKnownValues(t *testing.T) {
	half := big.NewRat(1, 2)
	// Single interval [0,1] over two coins: probability 1/4.
	s := &IntervalSystem{NumVars: 2, Clauses: []Interval{{0, 1}}}
	got, err := s.Prob([]*big.Rat{half, half})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(1, 4)) != 0 {
		t.Fatalf("Prob = %s, want 1/4", got.RatString())
	}
	// Two disjoint singletons: 1 − (1/2)² = 3/4.
	s2 := &IntervalSystem{NumVars: 2, Clauses: []Interval{{0, 0}, {1, 1}}}
	got2, _ := s2.Prob([]*big.Rat{half, half})
	if got2.Cmp(big.NewRat(3, 4)) != 0 {
		t.Fatalf("Prob = %s, want 3/4", got2.RatString())
	}
}

func TestIntervalEdgeCases(t *testing.T) {
	s := &IntervalSystem{NumVars: 3}
	p, err := s.Prob(randProbs(rand.New(rand.NewSource(1)), 3))
	if err != nil || p.Sign() != 0 {
		t.Fatalf("no clauses must give 0, got %v %v", p, err)
	}
	s.Clauses = []Interval{{2, 1}} // empty interval: true
	p, err = s.Prob(randProbs(rand.New(rand.NewSource(1)), 3))
	if err != nil || p.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("empty clause must give 1, got %v %v", p, err)
	}
	s.Clauses = []Interval{{0, 5}}
	if _, err := s.Prob(randProbs(rand.New(rand.NewSource(1)), 3)); err == nil {
		t.Fatal("out-of-range clause accepted")
	}
	if _, err := (&IntervalSystem{NumVars: 2}).Prob(randProbs(rand.New(rand.NewSource(1)), 3)); err == nil {
		t.Fatal("probability length mismatch accepted")
	}
}

// TestIntervalMatchesOracle cross-checks the DP against Shannon expansion
// on random interval systems.
func TestIntervalMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(10)
		s := &IntervalSystem{NumVars: n}
		for k := r.Intn(5); k > 0; k-- {
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo)
			s.Clauses = append(s.Clauses, Interval{lo, hi})
		}
		probs := randProbs(r, n)
		got, err := s.Prob(probs)
		if err != nil {
			t.Fatal(err)
		}
		want := intervalToDNF(s).ShannonProb(probs)
		if got.Cmp(want) != 0 {
			t.Fatalf("interval DP mismatch on %v: got %s, want %s", s.Clauses, got.RatString(), want.RatString())
		}
	}
}

// chainToDNF converts a chain system to a generic DNF over node indices
// (variable v = edge above node v).
func chainToDNF(c *ChainSystem) *boolform.DNF {
	f := boolform.NewDNF(len(c.Parent))
	for v, l := range c.ChainLen {
		if l == 0 {
			continue
		}
		var vars []boolform.Var
		cur := v
		for k := 0; k < l; k++ {
			vars = append(vars, boolform.Var(cur))
			cur = c.Parent[cur]
		}
		f.AddClause(vars...)
	}
	return f
}

func randForest(r *rand.Rand, n int) []int {
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		if i == 0 || r.Intn(4) == 0 {
			parent[i] = -1
		} else {
			parent[i] = r.Intn(i)
		}
	}
	return parent
}

func depths(parent []int) []int {
	d := make([]int, len(parent))
	for i := range parent {
		if parent[i] >= 0 {
			d[i] = d[parent[i]] + 1
		}
	}
	return d
}

func TestChainKnownValues(t *testing.T) {
	half := big.NewRat(1, 2)
	// Path of 2 edges: root 0, 0→1, 1→2; clause of length 2 at node 2.
	c := &ChainSystem{Parent: []int{-1, 0, 1}, ChainLen: []int{0, 0, 2}}
	got, err := c.Prob([]*big.Rat{nil, half, half})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewRat(1, 4)) != 0 {
		t.Fatalf("Prob = %s, want 1/4", got.RatString())
	}
}

func TestChainValidation(t *testing.T) {
	// Chain longer than depth must be rejected.
	c := &ChainSystem{Parent: []int{-1, 0}, ChainLen: []int{0, 5}}
	if err := c.Validate(); err == nil {
		t.Fatal("overlong chain accepted")
	}
	// Parent cycle must be rejected.
	c2 := &ChainSystem{Parent: []int{1, 0}, ChainLen: []int{0, 0}}
	if err := c2.Validate(); err == nil {
		t.Fatal("parent cycle accepted")
	}
}

// TestChainMatchesOracle cross-checks the forest DP against Shannon
// expansion on random forests with random clauses.
func TestChainMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(10)
		parent := randForest(r, n)
		d := depths(parent)
		chain := make([]int, n)
		for v := 0; v < n; v++ {
			if d[v] > 0 && r.Intn(3) == 0 {
				chain[v] = 1 + r.Intn(d[v])
			}
		}
		c := &ChainSystem{Parent: parent, ChainLen: chain}
		probs := randProbs(r, n)
		got, err := c.Prob(probs)
		if err != nil {
			t.Fatal(err)
		}
		want := chainToDNF(c).ShannonProb(probs)
		if got.Cmp(want) != 0 {
			t.Fatalf("chain DP mismatch: parent=%v chain=%v got=%s want=%s",
				parent, chain, got.RatString(), want.RatString())
		}
	}
}

func TestChainNoClauses(t *testing.T) {
	c := &ChainSystem{Parent: []int{-1, 0}, ChainLen: []int{0, 0}}
	p, err := c.Prob([]*big.Rat{nil, big.NewRat(1, 2)})
	if err != nil || p.Sign() != 0 {
		t.Fatalf("no clauses must give 0, got %v %v", p, err)
	}
}

// ratEmitter is an OpEmitter that executes each op on the spot in exact
// arithmetic and counts the ops, standing in for the plan builder.
type ratEmitter struct {
	probs []*big.Rat
	regs  []*big.Rat
}

func (e *ratEmitter) put(v *big.Rat) uint32 {
	e.regs = append(e.regs, v)
	return uint32(len(e.regs) - 1)
}
func (e *ratEmitter) Load(v int) uint32       { return e.put(e.probs[v]) }
func (e *ratEmitter) Const(v *big.Rat) uint32 { return e.put(v) }
func (e *ratEmitter) Mul(a, b uint32) uint32  { return e.put(new(big.Rat).Mul(e.regs[a], e.regs[b])) }
func (e *ratEmitter) Add(a, b uint32) uint32  { return e.put(new(big.Rat).Add(e.regs[a], e.regs[b])) }
func (e *ratEmitter) OneMinus(a uint32) uint32 {
	return e.put(new(big.Rat).Sub(big.NewRat(1, 1), e.regs[a]))
}
func (e *ratEmitter) Release(uint32) {}
func (e *ratEmitter) Failed() bool   { return false }
func (e *ratEmitter) run(s *IntervalSystem) (string, int, error) {
	e.regs = nil
	out, err := s.EmitOps(e)
	if err != nil {
		return "", 0, err
	}
	return e.regs[out].RatString(), len(e.regs), nil
}

// TestIntervalEmitIgnoresSameEndSupersets: the trellis is capped at the
// longest shortest-clause-per-end, so appending clauses that extend an
// existing clause to the left (same right end, absorbed) changes neither
// the number of emitted ops nor the exact result — and the result still
// matches Prob and the Shannon oracle.
func TestIntervalEmitIgnoresSameEndSupersets(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		s := &IntervalSystem{NumVars: n}
		for k := 1 + r.Intn(4); k > 0; k-- {
			hi := r.Intn(n)
			lo := hi - r.Intn(min(hi+1, 3))
			s.Clauses = append(s.Clauses, Interval{lo, hi})
		}
		em := &ratEmitter{probs: randProbs(r, n)}
		want, wantOps, err := em.run(s)
		if err != nil {
			t.Fatal(err)
		}
		grown := &IntervalSystem{NumVars: n, Clauses: append([]Interval(nil), s.Clauses...)}
		for _, c := range s.Clauses {
			if c.Lo > 0 {
				grown.Clauses = append(grown.Clauses, Interval{r.Intn(c.Lo), c.Hi})
			}
		}
		got, gotOps, err := em.run(grown)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || gotOps != wantOps {
			t.Fatalf("supersets moved the program: %s in %d ops, was %s in %d ops\nbase %v\ngrown %v",
				got, gotOps, want, wantOps, s.Clauses, grown.Clauses)
		}
		if p, _ := grown.Prob(em.probs); p.RatString() != want {
			t.Fatalf("EmitOps %s vs Prob %s on %v", want, p.RatString(), grown.Clauses)
		}
		if o := intervalToDNF(grown).ShannonProb(em.probs); o.RatString() != want {
			t.Fatalf("EmitOps %s vs Shannon %s on %v", want, o.RatString(), grown.Clauses)
		}
	}
}
