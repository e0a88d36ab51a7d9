package betadnf

import "math/big"

// This file lowers the two β-acyclic evaluators to flat instruction
// streams. Both dynamic programs have a trellis fixed entirely by the
// system's structure — which states are reachable, which clause fires
// at which step — so the per-assignment arithmetic unrolls into
// straight-line loads, multiplications, additions and complementations
// against an OpEmitter (in practice the Program builder of
// internal/plan). The emitted code performs exactly the arithmetic of
// Prob, so its exact rational result is identical.

// OpEmitter receives the flattened arithmetic of EmitOps. Load yields
// the probability of system variable v (the emitter owns the mapping
// from variables to whatever backs them, e.g. instance edges);
// Release returns a register whose value is no longer needed, bounding
// the register file by peak liveness. Implemented by plan.Builder
// adapters.
type OpEmitter interface {
	Load(v int) uint32
	Const(v *big.Rat) uint32
	Mul(a, b uint32) uint32
	Add(a, b uint32) uint32
	OneMinus(a uint32) uint32
	Release(r uint32)
	// Failed reports the emitter's sticky-error state (a lowering bug
	// or a cancelled context — plan.Builder polls its context from
	// inside the emit methods). The dynamic-program loops below consult
	// it at their outer steps and abandon the remaining trellis:
	// emission after a failure would be no-ops anyway, and breaking out
	// is what makes a cancelled compile return within one checkpoint
	// interval instead of walking the whole structure.
	Failed() bool
}

var (
	emitOne  = big.NewRat(1, 1)
	emitZero = new(big.Rat)
)

// EmitOps lowers the chain dynamic program of Prob to flat ops,
// returning the register holding the final probability. The emitted
// program computes, like Prob, the complementary probability f(v, s)
// over live subtrees only, with the node probabilities loaded once per
// child.
func (cc *CompiledChain) EmitOps(em OpEmitter) (uint32, error) {
	if cc.cap0 == 0 {
		return em.Const(emitZero), nil
	}
	n := len(cc.chainLen)
	// f[v][s] = register holding f(v, s), for live v in traversal order.
	f := make([][]uint32, n)
	for i := len(cc.order) - 1; i >= 0; i-- {
		if em.Failed() {
			return 0, nil // sticky error; Finish reports it
		}
		v := cc.order[i]
		// Load p and 1−p once per live child (Prob recomputes q per
		// state; the value is identical).
		type childReg struct {
			u    int
			p, q uint32
		}
		var kids []childReg
		for _, u := range cc.children[v] {
			if !cc.live[u] {
				continue // f[u] ≡ 1: the child's factor is q + p = 1
			}
			p := em.Load(u)
			kids = append(kids, childReg{u: u, p: p, q: em.OneMinus(p)})
		}
		fv := make([]uint32, cc.cap0+1)
		for s := 0; s <= cc.cap0; s++ {
			acc := em.Const(emitOne)
			for _, k := range kids {
				// Edge to u absent: child streak 0.
				term := em.Mul(k.q, f[k.u][0])
				// Edge to u present: streak extends; clause at u may fire.
				ns := s + 1
				if ns > cc.cap0 {
					ns = cc.cap0
				}
				if !(cc.chainLen[k.u] != 0 && ns >= cc.chainLen[k.u]) {
					t := em.Mul(k.p, f[k.u][ns])
					sum := em.Add(term, t)
					em.Release(term)
					em.Release(t)
					term = sum
				}
				next := em.Mul(acc, term)
				em.Release(acc)
				em.Release(term)
				acc = next
			}
			fv[s] = acc
		}
		// The children's states are fully consumed by this node.
		for _, k := range kids {
			em.Release(k.p)
			em.Release(k.q)
			for _, r := range f[k.u] {
				em.Release(r)
			}
			f[k.u] = nil
		}
		f[v] = fv
	}
	alive := em.Const(emitOne)
	for _, r := range cc.roots {
		if !cc.live[r] {
			continue
		}
		next := em.Mul(alive, f[r][0])
		em.Release(alive)
		for _, fr := range f[r] {
			em.Release(fr)
		}
		alive = next
	}
	out := em.OneMinus(alive)
	em.Release(alive)
	return out, nil
}

// EmitOps lowers the interval dynamic program of Prob to flat ops,
// returning the register holding the final probability. Streak states
// that are structurally unreachable at a scan position (the symbolic
// analogue of Prob skipping zero-weight states) emit no code, and the
// states are capped at the longest shortest-clause-per-end (see shape),
// so the program has O(variables × that cap) ops however long the
// absorbed clauses are.
func (s *IntervalSystem) EmitOps(em OpEmitter) (uint32, error) {
	minEnd, maxLen, constTrue, err := s.shape()
	if err != nil {
		return 0, err
	}
	if constTrue {
		return em.Const(emitOne), nil // empty clause: formula is true
	}
	if maxLen == 0 {
		return em.Const(emitZero), nil // no clause: false
	}
	// cur[st] = register holding the survival weight of streak st;
	// curOK marks states reachable at this position.
	cur := make([]uint32, maxLen+1)
	curOK := make([]bool, maxLen+1)
	cur[0] = em.Const(emitOne)
	curOK[0] = true
	for r := 0; r < s.NumVars; r++ {
		if em.Failed() {
			return 0, nil // sticky error; Finish reports it
		}
		p := em.Load(r)
		q := em.OneMinus(p)
		next := make([]uint32, maxLen+1)
		nextOK := make([]bool, maxLen+1)
		accum := func(st int, reg uint32) {
			if nextOK[st] {
				sum := em.Add(next[st], reg)
				em.Release(next[st])
				em.Release(reg)
				next[st] = sum
				return
			}
			next[st] = reg
			nextOK[st] = true
		}
		for st := 0; st <= maxLen; st++ {
			if !curOK[st] {
				continue
			}
			// Variable r false: streak resets.
			accum(0, em.Mul(cur[st], q))
			// Variable r true: streak extends (capped).
			nst := st + 1
			if nst > maxLen {
				nst = maxLen
			}
			if minEnd[r] != 0 && nst >= minEnd[r] {
				continue // a clause ending at r fired: world lost
			}
			accum(nst, em.Mul(cur[st], p))
		}
		for st := 0; st <= maxLen; st++ {
			if curOK[st] {
				em.Release(cur[st])
			}
		}
		em.Release(p)
		em.Release(q)
		cur, curOK = next, nextOK
	}
	var alive uint32
	has := false
	for st := 0; st <= maxLen; st++ {
		if !curOK[st] {
			continue
		}
		if !has {
			alive, has = cur[st], true
			continue
		}
		sum := em.Add(alive, cur[st])
		em.Release(alive)
		em.Release(cur[st])
		alive = sum
	}
	if !has {
		alive = em.Const(emitZero) // unreachable: state 0 always survives
	}
	out := em.OneMinus(alive)
	em.Release(alive)
	return out, nil
}
