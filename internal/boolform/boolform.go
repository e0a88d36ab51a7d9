package boolform

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"phom/internal/phomerr"
)

// Var is a Boolean variable, identified by an index 0 … NumVars−1.
type Var int

// Clause is a conjunction of (positive) variables.
type Clause []Var

// DNF is a positive disjunctive normal form formula: a disjunction of
// clauses, each a conjunction of variables (Definition 4.3). The empty
// DNF is false; a DNF containing an empty clause is true.
type DNF struct {
	NumVars int
	Clauses []Clause
}

// NewDNF returns a DNF over n variables with no clauses (false).
func NewDNF(n int) *DNF { return &DNF{NumVars: n} }

// AddClause appends a clause after normalizing it (sorted, deduplicated).
// It panics on out-of-range variables.
func (f *DNF) AddClause(vars ...Var) {
	c := normalize(vars)
	for _, v := range c {
		if v < 0 || int(v) >= f.NumVars {
			panic(fmt.Sprintf("boolform: variable %d out of range (n=%d)", v, f.NumVars))
		}
	}
	f.Clauses = append(f.Clauses, c)
}

func normalize(vars []Var) Clause {
	c := make(Clause, len(vars))
	copy(c, vars)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	out := c[:0]
	for i, v := range c {
		if i == 0 || v != c[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Eval evaluates f under the valuation ν (indexed by variable).
func (f *DNF) Eval(nu []bool) bool {
	for _, c := range f.Clauses {
		sat := true
		for _, v := range c {
			if !nu[v] {
				sat = false
				break
			}
		}
		if sat {
			return true
		}
	}
	return false
}

// String renders the DNF for debugging, e.g. "(x0∧x2) ∨ (x1)".
func (f *DNF) String() string {
	if len(f.Clauses) == 0 {
		return "false"
	}
	parts := make([]string, len(f.Clauses))
	for i, c := range f.Clauses {
		if len(c) == 0 {
			parts[i] = "true"
			continue
		}
		vs := make([]string, len(c))
		for j, v := range c {
			vs[j] = fmt.Sprintf("x%d", v)
		}
		parts[i] = "(" + strings.Join(vs, "∧") + ")"
	}
	return strings.Join(parts, " ∨ ")
}

// Absorb removes clauses that are supersets of other clauses; the result
// is logically equivalent and contains only inclusion-minimal clauses.
func (f *DNF) Absorb() *DNF {
	cs := make([]Clause, len(f.Clauses))
	copy(cs, f.Clauses)
	sort.Slice(cs, func(i, j int) bool {
		if len(cs[i]) != len(cs[j]) {
			return len(cs[i]) < len(cs[j])
		}
		return clauseLess(cs[i], cs[j])
	})
	out := NewDNF(f.NumVars)
	for _, c := range cs {
		sub := false
		for _, kept := range out.Clauses {
			if clauseSubset(kept, c) {
				sub = true
				break
			}
		}
		if !sub {
			out.Clauses = append(out.Clauses, c)
		}
	}
	return out
}

func clauseSubset(a, b Clause) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

func clauseLess(a, b Clause) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// BruteForceProb computes Pr(f, π) by enumerating all 2^NumVars
// valuations. Exponential; use only on small formulas.
func (f *DNF) BruteForceProb(probs []*big.Rat) *big.Rat {
	if len(probs) != f.NumVars {
		panic("boolform: probability vector length mismatch")
	}
	total := new(big.Rat)
	nu := make([]bool, f.NumVars)
	var rec func(i int, w *big.Rat)
	one := big.NewRat(1, 1)
	rec = func(i int, w *big.Rat) {
		if w.Sign() == 0 {
			return
		}
		if i == f.NumVars {
			if f.Eval(nu) {
				total.Add(total, w)
			}
			return
		}
		nu[i] = true
		rec(i+1, new(big.Rat).Mul(w, probs[i]))
		nu[i] = false
		rec(i+1, new(big.Rat).Mul(w, new(big.Rat).Sub(one, probs[i])))
	}
	rec(0, big.NewRat(1, 1))
	return total
}

// ShannonProbContext computes Pr(f, π) exactly by Shannon expansion on
// the most frequent variable, with absorption-based simplification and
// memoization. Worst case exponential, but far faster than enumeration
// on the structured lineages this library produces; it is the reference
// oracle for the PTIME evaluators. The expansion polls ctx every
// phomerr.CheckInterval recursion steps, so a cancelled or deadlined
// context aborts even a worst-case exponential expansion within one
// checkpoint interval and returns the typed cancellation error.
func (f *DNF) ShannonProbContext(ctx context.Context, probs []*big.Rat) (*big.Rat, error) {
	if len(probs) != f.NumVars {
		panic("boolform: probability vector length mismatch")
	}
	memo := map[string]*big.Rat{}
	return shannon(f.Absorb().Clauses, probs, memo, phomerr.NewCheckpoint(ctx))
}

func shannon(clauses []Clause, probs []*big.Rat, memo map[string]*big.Rat, cp *phomerr.Checkpoint) (*big.Rat, error) {
	if len(clauses) == 0 {
		return new(big.Rat), nil // false
	}
	for _, c := range clauses {
		if len(c) == 0 {
			return big.NewRat(1, 1), nil // contains true
		}
	}
	// The recursion checkpoint: each expansion node costs an absorption
	// pass and a memo probe, so polling per node keeps the abort within
	// one CheckInterval of the cancellation even on expansions whose
	// memo table no longer fits the structured-lineage fast case.
	if err := cp.Check(); err != nil {
		return nil, err
	}
	key := clausesKey(clauses)
	if r, ok := memo[key]; ok {
		return r, nil
	}
	x := mostFrequentVar(clauses)
	p := probs[x]
	one := big.NewRat(1, 1)

	// Condition on x = 1: drop x from clauses; on x = 0: drop clauses
	// containing x.
	var pos, neg []Clause
	for _, c := range clauses {
		if idx := clauseFind(c, x); idx >= 0 {
			nc := make(Clause, 0, len(c)-1)
			nc = append(nc, c[:idx]...)
			nc = append(nc, c[idx+1:]...)
			pos = append(pos, nc)
		} else {
			pos = append(pos, c)
			neg = append(neg, c)
		}
	}
	pos = absorbClauses(pos)
	neg = absorbClauses(neg)

	rp, err := shannon(pos, probs, memo, cp)
	if err != nil {
		return nil, err
	}
	rn, err := shannon(neg, probs, memo, cp)
	if err != nil {
		return nil, err
	}
	res := new(big.Rat).Mul(p, rp)
	q := new(big.Rat).Sub(one, p)
	res.Add(res, q.Mul(q, rn))
	memo[key] = res
	return res, nil
}

func clauseFind(c Clause, x Var) int {
	for i, v := range c {
		if v == x {
			return i
		}
	}
	return -1
}

func mostFrequentVar(clauses []Clause) Var {
	count := map[Var]int{}
	for _, c := range clauses {
		for _, v := range c {
			count[v]++
		}
	}
	best, bestN := Var(-1), -1
	for v, n := range count {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

func absorbClauses(cs []Clause) []Clause {
	sorted := make([]Clause, len(cs))
	copy(sorted, cs)
	sort.Slice(sorted, func(i, j int) bool {
		if len(sorted[i]) != len(sorted[j]) {
			return len(sorted[i]) < len(sorted[j])
		}
		return clauseLess(sorted[i], sorted[j])
	})
	var out []Clause
	for _, c := range sorted {
		sub := false
		for _, kept := range out {
			if clauseSubset(kept, c) {
				sub = true
				break
			}
		}
		if !sub {
			out = append(out, c)
		}
	}
	return out
}

func clausesKey(cs []Clause) string {
	sorted := make([]Clause, len(cs))
	copy(sorted, cs)
	sort.Slice(sorted, func(i, j int) bool { return clauseLess(sorted[i], sorted[j]) })
	var b strings.Builder
	for _, c := range sorted {
		for _, v := range c {
			fmt.Fprintf(&b, "%d,", v)
		}
		b.WriteByte(';')
	}
	return b.String()
}
