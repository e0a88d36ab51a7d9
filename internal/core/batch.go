package core

import (
	"context"
	"math/big"

	"phom/internal/plan"
)

// This file is the lane-routing core of plan evaluation: every public
// Evaluate* method — one probability vector or K of them — funnels into
// evaluateLanes. It validates each lane, runs the float64 interval
// kernel once for all valid lanes when the policy asks for it (fast and
// auto on a structural plan: one instruction decode for all K lanes),
// and routes each lane independently to the float result, the exact
// program, the opaque re-solve or the Karp–Luby sampler. A batch is
// therefore identical, lane by lane, to K one-vector evaluations;
// batching is purely a performance property.

// BatchOutcome is the per-lane outcome of a batched evaluation: exactly
// one of Result and Err is non-nil.
type BatchOutcome struct {
	Result *Result
	Err    error
}

// EvaluateBatchOpts evaluates the plan against every probability vector
// of probVecs and returns one outcome per lane, in lane order. Each
// lane's outcome — result, precision served, certified bounds, or
// error — is identical to what EvaluateOpts(probVecs[k], opts) would
// return; a malformed lane fails only itself. Under the fast and auto
// precision modes the lanes share one batched kernel dispatch.
func (cp *CompiledPlan) EvaluateBatchOpts(probVecs [][]*big.Rat, opts *Options) []BatchOutcome {
	return cp.evaluateLanes(context.Background(), probVecs, opts.policy())
}

// EvaluateBatchOptsContext is EvaluateBatchOpts under a context:
// cancellation aborts the batched kernel at an op checkpoint and any
// per-lane exact fallbacks at theirs, so a cancelled batch surfaces the
// typed cancellation error on the lanes that had not completed.
func (cp *CompiledPlan) EvaluateBatchOptsContext(ctx context.Context, probVecs [][]*big.Rat, opts *Options) []BatchOutcome {
	return cp.evaluateLanes(ctx, probVecs, opts.policy())
}

// evaluateOne is the one-lane call into evaluateLanes behind Evaluate,
// EvaluateContext, EvaluateOpts and EvaluateOptsContext.
func (cp *CompiledPlan) evaluateOne(ctx context.Context, probs []*big.Rat, pol evalPolicy) (*Result, error) {
	o := cp.evaluateLanes(ctx, [][]*big.Rat{probs}, pol)[0]
	return o.Result, o.Err
}

// evaluateLanes validates every lane, then picks each lane's numeric
// substrate under pol.
func (cp *CompiledPlan) evaluateLanes(ctx context.Context, probVecs [][]*big.Rat, pol evalPolicy) []BatchOutcome {
	out := make([]BatchOutcome, len(probVecs))
	// Validate every lane first so one malformed vector cannot fail the
	// shared kernel dispatch for the others.
	valid := make([]int, 0, len(probVecs))
	for k, probs := range probVecs {
		if err := cp.validateProbs(probs); err != nil {
			out[k] = BatchOutcome{Err: err}
			continue
		}
		valid = append(valid, k)
	}
	if len(valid) == 0 {
		return out
	}

	// Opaque plans have no program, hence no float kernel; exact and
	// approx policies never consult it.
	var ivs []plan.Enclosure
	if !cp.opaque && (pol.prec == PrecisionFast || pol.prec == PrecisionAuto) {
		vecs := probVecs
		if len(valid) < len(probVecs) {
			vecs = make([][]*big.Rat, len(valid))
			for i, k := range valid {
				vecs[i] = probVecs[k]
			}
		}
		// A kernel error (cancellation) leaves ivs nil: every lane then
		// takes the exact path, which reports the error itself.
		ivs, _ = cp.prog.ExecFloatBatchCtx(ctx, vecs)
	}

	for i, k := range valid {
		if ivs != nil {
			if res, ok := cp.serveFloat(ivs[i], pol.prec, pol.tol); ok {
				out[k] = BatchOutcome{Result: res}
				continue
			}
		}
		// Kernel failure (cancellation, degenerate arithmetic), a lane the
		// serve decision rejected (NaN enclosure, auto-mode tolerance
		// miss), or a policy without a float path: evaluate exactly.
		res, err := cp.evaluateExact(ctx, probVecs[k], pol)
		out[k] = BatchOutcome{Result: res, Err: err}
	}
	return out
}

// evaluateExact answers one validated lane without the float kernel. A
// structural plan executes its program over exact rationals. An opaque
// plan routes to the Karp–Luby estimator over its lineage DNF under
// the approx policy and re-solves with an exponential baseline under
// every other (the baselines are the arbiter, not a fast path).
func (cp *CompiledPlan) evaluateExact(ctx context.Context, probs []*big.Rat, pol evalPolicy) (*Result, error) {
	if cp.opaque {
		if pol.prec == PrecisionApprox {
			return cp.evaluateApprox(ctx, probs, pol)
		}
		return cp.resolve(ctx, probs)
	}
	pr, err := cp.prog.ExecCtx(ctx, probs)
	if err != nil {
		return nil, err
	}
	return &Result{Prob: pr, Method: cp.method, Precision: PrecisionExact}, nil
}
