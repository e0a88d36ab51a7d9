package betadnf

import "fmt"

// ProbFloat is the float64 counterpart of Prob, used by the ablation
// experiment E18 to quantify the cost of exact rational arithmetic.
// Unlike Prob it accumulates rounding error; the tests bound the drift
// against the exact result.
func (s *IntervalSystem) ProbFloat(probs []float64) (float64, error) {
	if len(probs) != s.NumVars {
		return 0, fmt.Errorf("betadnf: %d probabilities for %d variables", len(probs), s.NumVars)
	}
	minEnd, maxLen, constTrue, err := s.shape()
	if err != nil {
		return 0, err
	}
	if constTrue {
		return 1, nil
	}
	if maxLen == 0 {
		return 0, nil
	}
	dist := make([]float64, maxLen+1)
	next := make([]float64, maxLen+1)
	dist[0] = 1
	for r := 0; r < s.NumVars; r++ {
		for i := range next {
			next[i] = 0
		}
		p := probs[r]
		for st, w := range dist {
			if w == 0 {
				continue
			}
			next[0] += w * (1 - p)
			nst := st + 1
			if nst > maxLen {
				nst = maxLen
			}
			if minEnd[r] != 0 && nst >= minEnd[r] {
				continue
			}
			next[nst] += w * p
		}
		dist, next = next, dist
	}
	alive := 0.0
	for _, w := range dist {
		alive += w
	}
	return 1 - alive, nil
}

// ProbFloat is the float64 counterpart of ChainSystem.Prob (see
// IntervalSystem.ProbFloat).
func (c *ChainSystem) ProbFloat(probs []float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	n := len(c.Parent)
	if len(probs) != n {
		return 0, fmt.Errorf("betadnf: %d probabilities for %d nodes", len(probs), n)
	}
	cap0 := 0
	hasClause := false
	for _, l := range c.ChainLen {
		if l > cap0 {
			cap0 = l
		}
		if l > 0 {
			hasClause = true
		}
	}
	if !hasClause {
		return 0, nil
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
	order := make([]int, 0, n)
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, children[v]...)
	}
	f := make([][]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		fv := make([]float64, cap0+1)
		for s := 0; s <= cap0; s++ {
			acc := 1.0
			for _, u := range children[v] {
				p := probs[u]
				term := (1 - p) * f[u][0]
				ns := s + 1
				if ns > cap0 {
					ns = cap0
				}
				if !(c.ChainLen[u] != 0 && ns >= c.ChainLen[u]) {
					term += p * f[u][ns]
				}
				acc *= term
			}
			fv[s] = acc
		}
		f[v] = fv
	}
	alive := 1.0
	for _, r := range roots {
		alive *= f[r][0]
	}
	return 1 - alive, nil
}
