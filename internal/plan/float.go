package plan

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"sync"
)

// floatRegPool recycles interval register matrices across kernel calls,
// the same way ratRegPool does for the exact path: the fast kernel's
// per-call cost is a few flops per op, so a register-file allocation
// per call is a measurable fraction of a dense reweight's budget.
// Define-before-use (Validate) makes stale contents invisible.
var floatRegPool sync.Pool

func getFloatRegs(n int) *[]Enclosure {
	if v, ok := floatRegPool.Get().(*[]Enclosure); ok && cap(*v) >= n {
		*v = (*v)[:n]
		return v
	}
	s := make([]Enclosure, n)
	return &s
}

// This file is the second numeric substrate of the Program IR: the
// interval kernel (batch.go) runs the same instruction stream as Exec,
// but over float64 registers with per-op directed-rounding error
// tracking, using the interval arithmetic below. Each register holds a
// closed interval [Lo, Hi] certified to contain the exact rational
// value the corresponding Exec register would hold, so the final
// interval is a machine-checked enclosure of the exact answer — near
// hardware-speed arithmetic whose error bound is a result, not a hope.
// Package core routes evaluation through the kernel for the fast and
// auto precision modes, falling back to Exec when the enclosure is
// wider than the caller's tolerance.

// Enclosure is a certified enclosure [Lo, Hi] of an exact rational
// value: the exact value v produced by Exec on the same inputs
// satisfies Lo ≤ v ≤ Hi. A valid interval has Lo ≤ Hi and no NaN
// endpoints; infinite endpoints are possible in principle (overflow on
// hostile decoded programs) and simply make the enclosure vacuous on
// that side.
type Enclosure struct {
	Lo, Hi float64
}

// Width returns the absolute width Hi − Lo of the enclosure — the
// certified absolute-error budget of the point estimate Mid.
func (iv Enclosure) Width() float64 { return iv.Hi - iv.Lo }

// String renders the enclosure as "[lo, hi]".
func (iv Enclosure) String() string { return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi) }

// Mid returns the midpoint of the enclosure, the point estimate whose
// distance to the exact value is at most Width.
func (iv Enclosure) Mid() float64 {
	// Lo + (Hi−Lo)/2 avoids the overflow of (Lo+Hi)/2 on huge bounds.
	return iv.Lo + (iv.Hi-iv.Lo)/2
}

// Contains reports whether the exact rational x lies inside the
// enclosure. It is exact: the float endpoints are converted to
// rationals (every finite float64 is a rational), never the other way
// around. Intervals with NaN endpoints contain nothing.
func (iv Enclosure) Contains(x *big.Rat) bool {
	if math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return false
	}
	if math.IsInf(iv.Lo, 1) || math.IsInf(iv.Hi, -1) {
		return false
	}
	if !math.IsInf(iv.Lo, -1) && new(big.Rat).SetFloat64(iv.Lo).Cmp(x) > 0 {
		return false
	}
	if !math.IsInf(iv.Hi, 1) && new(big.Rat).SetFloat64(iv.Hi).Cmp(x) < 0 {
		return false
	}
	return true
}

// down and up nudge a round-to-nearest result outward by one ulp in the
// respective direction. A float64 operation on float64 inputs errs by
// at most half an ulp from the exact real result, so the neighbouring
// representable value in each direction is a certified directed-rounding
// bound; this trades at most one ulp of tightness per op for not having
// to touch the FPU rounding mode (which Go cannot portably do).
//
// They are open-coded equivalents of math.Nextafter(x, ∓Inf) — same
// result for every input, NaN and ±Inf included — because Nextafter is
// too large to inline and these run once or twice per op per lane on
// the kernel's hot path. IEEE binary64 ordering makes the neighbour a
// ±1 on the bit pattern within each sign half; only the sign boundary
// (±0) and the receiving infinity need cases of their own.
func down(x float64) float64 {
	if x > 0 { // +Inf lands on MaxFloat64 via the same bits-1
		return math.Float64frombits(math.Float64bits(x) - 1)
	}
	if x < -math.MaxFloat64 || x != x { // -Inf and NaN are fixed points
		return x
	}
	if x < 0 {
		return math.Float64frombits(math.Float64bits(x) + 1)
	}
	return math.Float64frombits(0x8000000000000001) // ±0 → -tiniest subnormal
}

func up(x float64) float64 {
	if x < 0 { // -Inf lands on -MaxFloat64 via the same bits-1
		return math.Float64frombits(math.Float64bits(x) - 1)
	}
	if x > math.MaxFloat64 || x != x { // +Inf and NaN are fixed points
		return x
	}
	if x > 0 {
		return math.Float64frombits(math.Float64bits(x) + 1)
	}
	return math.Float64frombits(1) // ±0 → +tiniest subnormal
}

// sumExact reports whether s is exactly x+y, using the Knuth 2Sum error
// extraction (valid for all finite floats, subnormals included: the
// rounding error of an IEEE addition is always representable, and 2Sum
// recovers it exactly). When it holds, the computed bound needs no
// outward widening — which is what keeps enclosures of dyadic inputs
// (certain edges, probability 1/2) at zero width through entire
// programs.
func sumExact(x, y, s float64) bool {
	bv := s - x
	av := s - bv
	return (y-bv)+(x-av) == 0
}

// sumLo and sumHi return certified lower/upper bounds of x+y.
func sumLo(x, y float64) float64 {
	s := x + y
	if sumExact(x, y, s) {
		return s
	}
	return down(s)
}

func sumHi(x, y float64) float64 {
	s := x + y
	if sumExact(x, y, s) {
		return s
	}
	return up(s)
}

// minNormal is the smallest positive normal float64; below it the FMA
// error extraction of prodExact is not reliable (the rounding error of
// a subnormal product may itself be unrepresentable), so subnormal
// products are always widened.
const minNormal = 0x1p-1022

// prodExact reports whether p is exactly x·y, via fused multiply-add
// error extraction.
func prodExact(x, y, p float64) bool {
	if x == 0 || y == 0 {
		return p == 0 // exact unless the other operand was ±Inf (p NaN)
	}
	if math.Abs(p) < minNormal { // subnormal or zero after underflow
		return false
	}
	return math.FMA(x, y, -p) == 0 // Inf/NaN p fail this, forcing widening
}

// prodBounds returns a certified enclosure of the single product x·y;
// prodLo and prodHi are its one-sided halves for callers that only need
// one bound.
func prodBounds(x, y float64) (lo, hi float64) {
	p := x * y
	if prodExact(x, y, p) {
		return p, p
	}
	return down(p), up(p)
}

func prodLo(x, y float64) float64 {
	p := x * y
	if prodExact(x, y, p) {
		return p
	}
	return down(p)
}

func prodHi(x, y float64) float64 {
	p := x * y
	if prodExact(x, y, p) {
		return p
	}
	return up(p)
}

// enclose returns a one-ulp float64 interval containing the exact
// rational r.
func enclose(r *big.Rat) Enclosure {
	// Fast path for the overwhelmingly common case: numerator and
	// denominator both exactly representable as float64 integers. IEEE
	// division of exact operands is correctly rounded, so the quotient
	// errs by at most half an ulp and the representable neighbours
	// bound it. This skips big.Rat.Float64's arbitrary-precision
	// quotient machinery, which would otherwise dominate the whole
	// float kernel (one conversion per OpLoad).
	const maxExact = 1 << 53
	if num, den := r.Num(), r.Denom(); num.IsInt64() && den.IsInt64() {
		n, d := num.Int64(), den.Int64()
		if n > -maxExact && n < maxExact && d < maxExact {
			q := float64(n) / float64(d)
			if d&(d-1) == 0 {
				// A power-of-two denominator divides exactly (the
				// quotient only shifts the exponent), so dyadic
				// rationals — certain edges, halves, parsed binary
				// fractions — enclose at zero width.
				return Enclosure{Lo: q, Hi: q}
			}
			return Enclosure{Lo: down(q), Hi: up(q)}
		}
	}
	f, exact := r.Float64()
	if exact {
		return Enclosure{Lo: f, Hi: f}
	}
	// Float64 rounds to nearest (ties to even), so the true value lies
	// strictly between the two representable neighbours of f. When |r|
	// overflows, f is ±Inf and Nextafter pulls the finite side back to
	// ±MaxFloat64, which is still a correct bound.
	return Enclosure{Lo: down(f), Hi: up(f)}
}

// mulEnclosure multiplies two intervals. Nonnegative operands — the
// entire probability domain, hence nearly every multiplication a
// lowered program performs — take a two-product fast path: the product
// interval of [a,b]×[c,d] with a,c ≥ 0 is exactly [a·c, b·d], so only
// those two corners need certified bounds. The general four-product
// form remains for the rest (decoded programs may carry arbitrary
// constants, and sound enclosures can dip an ulp below zero); its
// bounds are the min/max of the four per-pair certified enclosures —
// per-pair, because picking the min of the round-to-nearest products
// first and bounding it after could land up to half an ulp above the
// true minimum when two products are within an ulp of each other. A
// NaN operand fails the fast path's comparisons and propagates through
// min/max as before.
func mulEnclosure(a, b Enclosure) Enclosure {
	if a.Lo >= 0 && b.Lo >= 0 {
		return Enclosure{Lo: prodLo(a.Lo, b.Lo), Hi: prodHi(a.Hi, b.Hi)}
	}
	lo, hi := prodBounds(a.Lo, b.Lo)
	for _, xy := range [3][2]float64{{a.Lo, b.Hi}, {a.Hi, b.Lo}, {a.Hi, b.Hi}} {
		l, h := prodBounds(xy[0], xy[1])
		lo, hi = math.Min(lo, l), math.Max(hi, h)
	}
	return Enclosure{Lo: lo, Hi: hi}
}

// ExecFloat interprets the program against probs — the same probability
// vector Exec takes — over float64 intervals and returns a certified
// enclosure of the exact result: Exec(probs) ∈ [Lo, Hi] whenever both
// succeed. Per op it costs a handful of flops instead of arbitrary-
// precision multiplication with GCD normalization, which is what makes
// it the serving fast path; the price is a one-ulp outward widening per
// op, so the final Width grows linearly with program length and stays
// far below any practical tolerance for the linear-size programs the
// tractable cells lower to. It is the one-lane case of ExecFloatBatch.
//
// ExecFloat fails only on malformed inputs (wrong vector length, nil
// probabilities, unknown opcodes) or if the result degenerates to NaN
// (possible only for decoded programs with overflowing constants); it
// never returns an unsound interval.
func (p *Program) ExecFloat(probs []*big.Rat) (Enclosure, error) {
	var out [1]Enclosure
	if err := p.execFloatLanes(context.Background(), [][]*big.Rat{probs}, out[:]); err != nil {
		return Enclosure{}, err
	}
	if iv := out[0]; math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
		return Enclosure{}, fmt.Errorf("plan: interval arithmetic degenerated to NaN")
	}
	return out[0], nil
}
