package main

// check.go: the correctness gate and the answer census. Every answer the
// servers give is compared with the library's answer for the same job,
// computed in this process outside the timed windows, and the run fails
// on any mismatch or on a degenerate set of answers.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"

	"phom/internal/serve"
)

// minInRangeShare is the least share of answers inside [loAns, hiAns]
// for a non-degenerate census.
const minInRangeShare = 0.5

// census counts the answers of a run: how many there are, how many
// distinct values, and how many lie inside [loAns, hiAns].
type census struct {
	distinct map[string]bool
	total    int
	inRange  int
}

func (c *census) add(rat string, f float64) {
	if c.distinct == nil {
		c.distinct = map[string]bool{}
	}
	c.distinct[rat] = true
	c.total++
	if inRange(f) {
		c.inRange++
	}
}

func (c *census) share() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.inRange) / float64(c.total)
}

// degenerate reports why the answers cannot tell a right evaluator from
// a wrong one: no answers, a single distinct value (all zero, say), or
// too few answers strictly between the extremes.
func (c *census) degenerate() error {
	switch {
	case c.total == 0:
		return fmt.Errorf("census: no answers")
	case len(c.distinct) < 2:
		return fmt.Errorf("census: all %d answers are the same value", c.total)
	case c.share() < minInRangeShare:
		return fmt.Errorf("census: only %.3f of %d answers lie in [%g, %g]", c.share(), c.total, loAns, hiAns)
	}
	return nil
}

// containsExact reports whether [lo, hi] contains the exact value x.
func containsExact(lo, hi float64, x *big.Rat) bool {
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return false
	}
	return new(big.Rat).SetFloat64(lo).Cmp(x) <= 0 && x.Cmp(new(big.Rat).SetFloat64(hi)) <= 0
}

// checkAnswer compares one served result with the library's answer:
// byte-identical probability, bitwise-identical float and bounds, and
// for approx answers the estimate inside its own bounds.
func checkAnswer(got *serve.SolveResponse, want answer) error {
	if got.Error != "" {
		return fmt.Errorf("error %q (%s)", got.Error, got.Code)
	}
	if got.Precision != want.prec {
		return fmt.Errorf("precision %q, want %q", got.Precision, want.prec)
	}
	if got.Prob != want.rat {
		return fmt.Errorf("prob %s, want %s", got.Prob, want.rat)
	}
	if math.Float64bits(got.ProbFloat) != math.Float64bits(want.float) {
		return fmt.Errorf("prob_float %v, want %v", got.ProbFloat, want.float)
	}
	switch want.prec {
	case "fast", "approx":
		if got.ProbLo == nil || got.ProbHi == nil {
			return fmt.Errorf("%s answer without bounds", want.prec)
		}
		lo, hi := *got.ProbLo, *got.ProbHi
		if math.Float64bits(lo) != math.Float64bits(want.lo) || math.Float64bits(hi) != math.Float64bits(want.hi) {
			return fmt.Errorf("bounds [%v, %v], want [%v, %v]", lo, hi, want.lo, want.hi)
		}
		if want.prec == "approx" {
			if got.ApproxSamples != want.samples {
				return fmt.Errorf("approx_samples %d, want %d", got.ApproxSamples, want.samples)
			}
			if !(lo <= got.ProbFloat && got.ProbFloat <= hi) {
				return fmt.Errorf("estimate %v outside its bounds [%v, %v]", got.ProbFloat, lo, hi)
			}
		}
		if want.exact != nil && !containsExact(lo, hi, want.exact) {
			return fmt.Errorf("enclosure [%v, %v] misses the exact value %s", lo, hi, want.exact.RatString())
		}
	}
	return nil
}

// report is the checker's verdict on a run.
type report struct {
	attempted, failed int
	wrong             []string // wrong answers: these fail the run
	failures          []string // failed requests: these count in failed
	census            census
}

func (r *report) wrongf(o *outcome, format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf("%s %s: %s", o.id, o.req.path, fmt.Sprintf(format, args...)))
	} else if len(r.wrong) == 20 {
		r.wrong = append(r.wrong, "…")
	}
}

// tally counts o as attempted, and as failed when it did not succeed.
// It reports whether o succeeded.
func (r *report) tally(o *outcome) bool {
	r.attempted++
	if o.ok() {
		return true
	}
	r.failed++
	if len(r.failures) < 20 {
		msg := fmt.Sprintf("%s %s: status %d", o.id, o.req.path, o.status)
		if o.err != nil {
			msg += ": " + o.err.Error()
		} else if len(o.body) > 0 {
			msg += ": " + string(o.body[:min(len(o.body), 200)])
		}
		r.failures = append(r.failures, msg)
	}
	return false
}

// checkStateless checks requests whose answers were computed up front.
func (r *report) checkStateless(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		if !r.tally(o) {
			continue
		}
		var results []serve.SolveResponse
		if len(o.req.want) == 1 {
			var sr serve.SolveResponse
			if err := json.Unmarshal(o.body, &sr); err != nil {
				r.wrongf(o, "decode: %v", err)
				continue
			}
			results = []serve.SolveResponse{sr}
		} else {
			var br serve.BatchResponse
			if err := json.Unmarshal(o.body, &br); err != nil {
				r.wrongf(o, "decode: %v", err)
				continue
			}
			results = br.Results
		}
		if len(results) != len(o.req.want) {
			r.wrongf(o, "%d results, want %d", len(results), len(o.req.want))
			continue
		}
		for k := range results {
			if err := checkAnswer(&results[k], o.req.want[k]); err != nil {
				r.wrongf(o, "result %d: %v", k, err)
				continue
			}
			if !o.req.repeat {
				r.census.add(results[k].Prob, results[k].ProbFloat)
			}
		}
	}
}

// checkWrites checks that every acknowledged write of a serialized
// per-instance stream advanced the version by exactly one.
func (r *report) checkWrites(outs []outcome, acks map[int][]ack, first map[int]uint64) {
	for i := range outs {
		r.tally(&outs[i])
	}
	for inst, as := range acks {
		v := first[inst]
		for _, a := range as {
			v++
			if a.version != v {
				r.wrong = append(r.wrong, fmt.Sprintf("instance %d: acknowledged version %d, want %d", inst, a.version, v))
				break
			}
		}
	}
}

func (r *report) err() error {
	if len(r.wrong) > 0 {
		return fmt.Errorf("%d wrong answers, first: %v", len(r.wrong), r.wrong)
	}
	return r.census.degenerate()
}
