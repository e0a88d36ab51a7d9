package betadnf

import (
	"fmt"
	"math/big"
)

// Interval is a clause over path variables: the conjunction of the
// variables Lo … Hi inclusive. An interval with Hi < Lo is empty and makes
// the formula true.
type Interval struct {
	Lo, Hi int
}

// IntervalSystem is a positive DNF whose n variables are linearly ordered
// and whose clauses are intervals.
type IntervalSystem struct {
	NumVars int
	Clauses []Interval
}

// shape validates the clauses and derives the trellis shared by Prob
// and EmitOps. minEnd[r] is the length of the shortest clause
// ending at variable r (0 = none), and streakCap, the largest minEnd,
// bounds the streak states; it is 0 exactly when there is no clause.
// constTrue reports an empty clause (the formula is true).
//
// The cap is exact: only the shortest clause ending at r decides whether
// a world survives step r (a longer clause ending there needs a longer
// streak, which fires the shorter one), and every clause that decides
// anything is at most streakCap long, so streaks of streakCap or more
// behave alike at every later step. Longer clauses sharing an end — the
// merged disjuncts of a UCQ, say — add no state.
func (s *IntervalSystem) shape() (minEnd []int, streakCap int, constTrue bool, err error) {
	minEnd = make([]int, s.NumVars)
	for _, c := range s.Clauses {
		if c.Hi < c.Lo {
			return nil, 0, true, nil
		}
		if c.Lo < 0 || c.Hi >= s.NumVars {
			return nil, 0, false, fmt.Errorf("betadnf: clause [%d,%d] out of range", c.Lo, c.Hi)
		}
		if l := c.Hi - c.Lo + 1; minEnd[c.Hi] == 0 || l < minEnd[c.Hi] {
			minEnd[c.Hi] = l
		}
	}
	for _, l := range minEnd {
		streakCap = max(streakCap, l)
	}
	return minEnd, streakCap, false, nil
}

// Prob returns the probability that at least one clause has all its
// variables true, with variable i true independently with probability
// probs[i].
//
// The dynamic program computes the complementary probability that no
// clause is fully true: scanning variables left to right, the state is
// the current streak of consecutive true variables (capped, see shape),
// and the shortest clause [l, r] ending at r fires exactly when the
// streak at r reaches r−l+1.
func (s *IntervalSystem) Prob(probs []*big.Rat) (*big.Rat, error) {
	if len(probs) != s.NumVars {
		return nil, fmt.Errorf("betadnf: %d probabilities for %d variables", len(probs), s.NumVars)
	}
	minEnd, maxLen, constTrue, err := s.shape()
	if err != nil {
		return nil, err
	}
	if constTrue {
		return big.NewRat(1, 1), nil
	}
	if maxLen == 0 {
		return new(big.Rat), nil // no clause: false
	}
	one := big.NewRat(1, 1)
	// dist[st] = probability that the scan survives so far with streak st.
	dist := make([]*big.Rat, maxLen+1)
	for i := range dist {
		dist[i] = new(big.Rat)
	}
	dist[0].SetInt64(1)
	next := make([]*big.Rat, maxLen+1)
	for i := range next {
		next[i] = new(big.Rat)
	}
	tmp := new(big.Rat)
	for r := 0; r < s.NumVars; r++ {
		for i := range next {
			next[i].SetInt64(0)
		}
		p := probs[r]
		q := tmp.Sub(one, p)
		for st, w := range dist {
			if w.Sign() == 0 {
				continue
			}
			// Variable r false: streak resets.
			next[0].Add(next[0], new(big.Rat).Mul(w, q))
			// Variable r true: streak extends (capped).
			nst := st + 1
			if nst > maxLen {
				nst = maxLen
			}
			if minEnd[r] != 0 && nst >= minEnd[r] {
				continue // a clause ending at r fired: world lost
			}
			next[nst].Add(next[nst], new(big.Rat).Mul(w, p))
		}
		dist, next = next, dist
	}
	alive := new(big.Rat)
	for _, w := range dist {
		alive.Add(alive, w)
	}
	return alive.Sub(one, alive), nil
}

// ChainSystem is a positive DNF over the parent edges of a rooted forest.
// Node v (v ≠ root) has Parent[v] ≥ 0 and a variable "edge above v". Roots
// have Parent[v] = −1 and no variable. A clause is attached to a node v
// and consists of the ChainLen[v] consecutive edges on the path from v
// towards the root, ending with v's parent edge; ChainLen[v] = 0 means no
// clause at v. When several clauses end at the same node, record the
// minimal length (the others are absorbed).
type ChainSystem struct {
	Parent   []int // per node; −1 for roots
	ChainLen []int // per node; 0 = no clause ends here
}

// Validate checks structural consistency: parents form a forest and chain
// lengths do not exceed node depths.
func (c *ChainSystem) Validate() error {
	n := len(c.Parent)
	if len(c.ChainLen) != n {
		return fmt.Errorf("betadnf: %d chain lengths for %d nodes", len(c.ChainLen), n)
	}
	depth := make([]int, n)
	for i := range depth {
		depth[i] = -1
	}
	var depthOf func(v int) (int, error)
	depthOf = func(v int) (int, error) {
		if depth[v] >= 0 {
			return depth[v], nil
		}
		if depth[v] == -2 {
			return 0, fmt.Errorf("betadnf: parent cycle at node %d", v)
		}
		depth[v] = -2
		d := 0
		if p := c.Parent[v]; p >= 0 {
			if p >= len(c.Parent) {
				return 0, fmt.Errorf("betadnf: parent %d out of range", p)
			}
			pd, err := depthOf(p)
			if err != nil {
				return 0, err
			}
			d = pd + 1
		}
		depth[v] = d
		return d, nil
	}
	for v := 0; v < n; v++ {
		d, err := depthOf(v)
		if err != nil {
			return err
		}
		if c.ChainLen[v] > d {
			return fmt.Errorf("betadnf: clause of length %d at node %d of depth %d", c.ChainLen[v], v, d)
		}
	}
	return nil
}

// Prob returns the probability that at least one clause has all its edges
// present, with the edge above node v present independently with
// probability probs[v] (probs of roots are ignored). It is the one-shot
// form of Compile followed by CompiledChain.Prob.
func (c *ChainSystem) Prob(probs []*big.Rat) (*big.Rat, error) {
	cc, err := c.Compile()
	if err != nil {
		return nil, err
	}
	return cc.Prob(probs)
}

// CompiledChain is the probability-independent part of the chain-system
// dynamic program: validated structure, children lists, traversal order,
// and the live-subtree pruning mask. Compile once and evaluate under
// many probability assignments (the plans of internal/plan do exactly
// this); evaluation then runs pure arithmetic, with no per-call
// validation or traversal setup. A CompiledChain is immutable and safe
// for concurrent Prob calls.
type CompiledChain struct {
	chainLen []int
	children [][]int
	roots    []int
	order    []int // pre-order over live subtrees only
	live     []bool
	cap0     int // longest clause; 0 means no clause at all
}

// Compile validates the system and precomputes the evaluation structure.
func (c *ChainSystem) Compile() (*CompiledChain, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := len(c.Parent)
	cap0 := 0
	for _, l := range c.ChainLen {
		if l > cap0 {
			cap0 = l
		}
	}
	cc := &CompiledChain{
		chainLen: append([]int(nil), c.ChainLen...),
		cap0:     cap0,
	}
	if cap0 == 0 {
		return cc, nil // no clause: the formula is constant false
	}
	children := make([][]int, n)
	var roots []int
	for v := 0; v < n; v++ {
		if p := c.Parent[v]; p >= 0 {
			children[p] = append(children[p], v)
		} else {
			roots = append(roots, v)
		}
	}
	// Iterative pre-order (children after their parent).
	order := make([]int, 0, n)
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, children[v]...)
	}
	// live[v]: the subtree of v contains a clause (bottom-up on the
	// reversed pre-order). Dead subtrees are pruned from evaluation: no
	// clause can fire there under any streak, so their f ≡ 1 and a dead
	// child's factor is exactly q + p·1 = 1. On sparse clause sets
	// (labeled lineages, where only nodes ending a label-matching path
	// carry a clause) this collapses evaluation from O(nodes × longest
	// clause) to O(clause-bearing ancestors × longest clause) big.Rat
	// operations.
	live := make([]bool, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		live[v] = c.ChainLen[v] > 0
		for _, u := range children[v] {
			if live[u] {
				live[v] = true
				break
			}
		}
	}
	// Keep only live nodes in the traversal order; dead subtrees are
	// never visited at evaluation time.
	liveOrder := make([]int, 0, len(order))
	for _, v := range order {
		if live[v] {
			liveOrder = append(liveOrder, v)
		}
	}
	cc.children = children
	cc.roots = roots
	cc.order = liveOrder
	cc.live = live
	return cc, nil
}

// Prob evaluates the chain dynamic program under probs (indexed by
// node; probs of roots are ignored; length must match the system).
//
// The dynamic program computes the complementary probability top-down:
// f(v, s) is the probability that no clause fires in the subtree of v
// given that the streak of consecutive present edges ending at v is s.
// Subtrees of distinct children are edge-disjoint, hence independent
// given s, so f multiplies over children.
func (cc *CompiledChain) Prob(probs []*big.Rat) (*big.Rat, error) {
	n := len(cc.chainLen)
	if len(probs) != n {
		return nil, fmt.Errorf("betadnf: %d probabilities for %d nodes", len(probs), n)
	}
	if cc.cap0 == 0 {
		return new(big.Rat), nil
	}
	// f[v][s] for s in 0..cap0, computed only on live subtrees.
	f := make([][]*big.Rat, n)
	one := big.NewRat(1, 1)
	for i := len(cc.order) - 1; i >= 0; i-- {
		v := cc.order[i]
		fv := make([]*big.Rat, cc.cap0+1)
		for s := 0; s <= cc.cap0; s++ {
			acc := big.NewRat(1, 1)
			for _, u := range cc.children[v] {
				if !cc.live[u] {
					continue // f[u] ≡ 1: the child's factor is q + p = 1
				}
				p := probs[u]
				q := new(big.Rat).Sub(one, p)
				// Edge to u absent: child streak 0.
				term := new(big.Rat).Mul(q, f[u][0])
				// Edge to u present: streak extends; clause at u may fire.
				ns := s + 1
				if ns > cc.cap0 {
					ns = cc.cap0
				}
				if !(cc.chainLen[u] != 0 && ns >= cc.chainLen[u]) {
					term.Add(term, new(big.Rat).Mul(p, f[u][ns]))
				}
				acc.Mul(acc, term)
			}
			fv[s] = acc
		}
		f[v] = fv
	}
	alive := big.NewRat(1, 1)
	for _, r := range cc.roots {
		if cc.live[r] {
			alive.Mul(alive, f[r][0])
		}
	}
	return alive.Sub(one, alive), nil
}
