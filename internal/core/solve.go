package core

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"strconv"

	"phom/internal/graph"
	"phom/internal/phomerr"
	"phom/internal/plan"
)

// Method identifies the algorithm the solver used.
type Method int

// Solver methods. PTIME methods realize the tractable cells of
// Tables 1–3; the baselines are exponential and are used only on cells
// the paper proves #P-hard (or when forced).
const (
	MethodTrivial        Method = iota // edgeless query: probability 1
	MethodLabelMismatch                // query uses a label absent from the instance: probability 0
	MethodGradedDWT                    // Proposition 3.6 (arbitrary query, ⊔DWT instance, unlabeled)
	MethodBetaAcyclicDWT               // Proposition 4.10 (1WP query, ⊔DWT instance) via β-acyclic lineage
	MethodXProperty2WP                 // Proposition 4.11 (connected query, ⊔2WP instance)
	MethodAutomatonPT                  // Propositions 5.4/5.5 (⊔DWT query, ⊔PT instance) via tree automaton + d-DNNF
	MethodBruteForce                   // possible-world enumeration (exponential baseline)
	MethodLineage                      // match enumeration + Shannon expansion (exponential baseline)
	MethodKarpLuby                     // seeded Karp–Luby (ε,δ) estimator over the lineage DNF (approx mode)
)

var methodNames = map[Method]string{
	MethodTrivial:        "trivial",
	MethodLabelMismatch:  "label-mismatch",
	MethodGradedDWT:      "graded-dwt (Prop 3.6)",
	MethodBetaAcyclicDWT: "beta-acyclic-dwt (Prop 4.10)",
	MethodXProperty2WP:   "x-property-2wp (Prop 4.11)",
	MethodAutomatonPT:    "automaton-polytree (Props 5.4/5.5)",
	MethodBruteForce:     "brute-force",
	MethodLineage:        "lineage-shannon",
	MethodKarpLuby:       "karp-luby",
}

func (m Method) String() string {
	if s, ok := methodNames[m]; ok {
		return s
	}
	return "method(?)"
}

// PTime reports whether the method has polynomial-time combined
// complexity. MethodKarpLuby is polynomial in the *lineage* size but
// the lineage itself can be exponential-many matches deep, and its
// answer is statistical rather than exact, so it does not count.
func (m Method) PTime() bool {
	return m != MethodBruteForce && m != MethodLineage && m != MethodKarpLuby
}

// DefaultMatchLimit is the default cap on the number of matches
// enumerated by the lineage fallback.
const DefaultMatchLimit = 1 << 16

// Options configures the solver.
type Options struct {
	// BruteForceLimit caps the number of uncertain edges accepted by the
	// brute-force fallback. 0 means DefaultBruteForceLimit.
	BruteForceLimit int
	// MatchLimit caps the number of matches enumerated by the lineage
	// fallback. 0 means DefaultMatchLimit.
	MatchLimit int
	// DisableFallback makes Solve fail instead of running an exponential
	// baseline on an intractable case.
	DisableFallback bool
	// Precision selects the numeric substrate of plan evaluation: exact
	// rational arithmetic (the zero value), the certified float64
	// interval kernel (PrecisionFast), or float-first with exact
	// fallback beyond FloatTolerance (PrecisionAuto). Compilation is
	// unaffected — the same plan serves every mode.
	Precision Precision
	// FloatTolerance is the widest certified enclosure PrecisionAuto
	// accepts before falling back to exact arithmetic, as an absolute
	// probability error. 0 means DefaultFloatTolerance; it must be a
	// finite, non-negative float.
	FloatTolerance float64
	// Epsilon is the PrecisionApprox relative error bound, in (0,1).
	// 0 means DefaultEpsilon. It must be 0 under every other precision
	// mode — a non-approx job carrying an ε is a caller bug, and
	// Validate rejects it rather than silently ignoring it.
	Epsilon float64
	// Delta is the PrecisionApprox failure probability budget, in (0,1).
	// 0 means DefaultDelta; like Epsilon it is rejected outside approx
	// mode.
	Delta float64
	// Seed seeds the PrecisionApprox PCG sampler; equal seeds reproduce
	// the estimate byte-for-byte. Like Epsilon it is rejected outside
	// approx mode (0, the default seed, is always accepted).
	Seed uint64
}

func (o *Options) bruteLimit() int {
	if o == nil || o.BruteForceLimit == 0 {
		return DefaultBruteForceLimit
	}
	return o.BruteForceLimit
}

func (o *Options) matchLimit() int {
	if o == nil || o.MatchLimit == 0 {
		return DefaultMatchLimit
	}
	return o.MatchLimit
}

func (o *Options) disableFallback() bool {
	return o != nil && o.DisableFallback
}

// Validate rejects option values the solver would otherwise silently
// misread: negative limits are not "unbounded" (0 means default; the
// baselines treat a negative cap as no cap, which callers almost never
// intend). Solve, SolveUCQContext and Compile call this on entry. Failures are
// typed phomerr.CodeBadInput.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.BruteForceLimit < 0 {
		return phomerr.New(phomerr.CodeBadInput, "core: negative BruteForceLimit %d (use 0 for the default)", o.BruteForceLimit)
	}
	if o.MatchLimit < 0 {
		return phomerr.New(phomerr.CodeBadInput, "core: negative MatchLimit %d (use 0 for the default)", o.MatchLimit)
	}
	if o.Precision < 0 || o.Precision >= numPrecisions {
		return phomerr.New(phomerr.CodeBadInput, "core: unknown Precision %d", int(o.Precision))
	}
	// NaN would make every tolerance comparison false (auto always falls
	// back — silently buying exact cost under a "fast" flag), negative
	// or infinite tolerances are never what a caller means.
	if math.IsNaN(o.FloatTolerance) || math.IsInf(o.FloatTolerance, 0) || o.FloatTolerance < 0 {
		return phomerr.New(phomerr.CodeBadInput, "core: FloatTolerance %v is not a finite non-negative float (use 0 for the default)", o.FloatTolerance)
	}
	if o.Precision == PrecisionApprox {
		if o.Epsilon != 0 && !(o.Epsilon > 0 && o.Epsilon < 1) {
			return phomerr.New(phomerr.CodeBadInput, "core: Epsilon %v outside (0,1) (use 0 for the default)", o.Epsilon)
		}
		if o.Delta != 0 && !(o.Delta > 0 && o.Delta < 1) {
			return phomerr.New(phomerr.CodeBadInput, "core: Delta %v outside (0,1) (use 0 for the default)", o.Delta)
		}
	} else if o.Epsilon != 0 || o.Delta != 0 || o.Seed != 0 {
		// Approx parameters on a non-approx job would be silently dead;
		// reject them so a caller who meant precision=approx finds out.
		return phomerr.New(phomerr.CodeBadInput, "core: Epsilon/Delta/Seed require Precision approx (got %s)", o.EffectivePrecision())
	}
	return nil
}

// Fingerprint renders the options with defaults resolved, uniquely
// identifying the solver behavior they select; nil options and
// explicitly spelled-out defaults fingerprint identically. Package
// engine keys its result cache on this, so any new Options field that
// affects results MUST be added here.
func (o *Options) Fingerprint() string {
	// The tolerance affects results only in auto mode (exact and fast
	// never consult it), so it joins the fingerprint only there —
	// otherwise two fast jobs differing in an unused tolerance would
	// spuriously miss the result cache. It is rendered in hex float
	// form, which is lossless: two tolerances fingerprint identically
	// iff they are the same float64.
	tol := "-"
	if o.EffectivePrecision() == PrecisionAuto {
		tol = strconv.FormatFloat(o.EffectiveFloatTolerance(), 'x', -1, 64)
	}
	// The approx parameters likewise matter only in approx mode (Validate
	// rejects them elsewhere, but a nil-options job must fingerprint like
	// an all-defaults one). Epsilon and delta render as lossless hex
	// floats; the seed is part of the result contract (equal seeds are
	// byte-identical), so it keys the cache too.
	ap := "-"
	if o.EffectivePrecision() == PrecisionApprox {
		ap = fmt.Sprintf("%s,%s,%d",
			strconv.FormatFloat(o.EffectiveEpsilon(), 'x', -1, 64),
			strconv.FormatFloat(o.EffectiveDelta(), 'x', -1, 64),
			o.Seed)
	}
	return fmt.Sprintf("%s;prec=%s;tol=%s;approx=%s", o.StructFingerprint(), o.EffectivePrecision(), tol, ap)
}

// StructFingerprint renders only the options that affect plan
// *compilation* — the baseline limits and the fallback switch —
// excluding evaluation policy (precision, tolerance), which routes at
// evaluation time over the same compiled plan. The engine keys its
// plan cache and plan snapshots on this, so one compiled structure
// serves every precision mode and snapshots stay warm across
// -precision changes.
func (o *Options) StructFingerprint() string {
	return fmt.Sprintf("brute=%d;match=%d;nofallback=%t", o.bruteLimit(), o.matchLimit(), o.disableFallback())
}

// Result is the outcome of Solve.
type Result struct {
	// Prob is the computed probability. On the exact substrate it is
	// the mathematically exact answer; on the fast substrate it is the
	// exact rational value of the float64 point estimate, within Bounds
	// of the true probability.
	Prob   *big.Rat
	Method Method
	// Precision is the numeric substrate that produced Prob:
	// PrecisionExact (rational arithmetic, including every fallback),
	// PrecisionFast (the certified float64 interval kernel), or
	// PrecisionApprox (the Karp–Luby sampler — only on #P-hard cells; an
	// approx job on a tractable cell reports PrecisionExact because the
	// answer IS exact). It is never PrecisionAuto — auto is a routing
	// policy, not a substrate.
	Precision Precision
	// Bounds encloses the exact probability. Under PrecisionFast it is
	// the certified enclosure of the float kernel (machine-checked);
	// under PrecisionApprox it is the (1−δ) Hoeffding confidence
	// interval of the sampler (statistical — it holds with probability
	// 1−δ, not always). It is non-nil exactly when Precision is
	// PrecisionFast or PrecisionApprox.
	Bounds *plan.Enclosure
	// ApproxSamples is the number of Monte-Carlo samples the Karp–Luby
	// estimator drew; non-zero only when Precision is PrecisionApprox
	// (and zero even there if the lineage short-circuited exactly).
	ApproxSamples int64
}

// Solve computes Pr(G ⇝ H), dispatching to the polynomial-time algorithm
// covering the input pair when one exists (following the tractability
// frontier of Tables 1–3) and otherwise, unless disabled, to an
// exponential exact baseline.
//
// Solve is the composition of the two pipeline stages: Compile builds
// the probability-independent plan (the guard table over the tractable
// cells lives there), and Evaluate runs the linear probability phase
// against h's own edge probabilities. Callers that re-solve the same
// structure under changing probabilities should call Compile once and
// Evaluate per assignment.
func Solve(q *graph.Graph, h *graph.ProbGraph, opts *Options) (*Result, error) {
	return SolveContext(context.Background(), q, h, opts)
}

// SolveContext is Solve under a context: compilation (the guard-table
// dispatch and the compile-time dynamic programs), the exponential
// baselines, and exact plan evaluation all poll ctx at cooperative
// checkpoints, so a cancelled or deadlined context aborts the job
// within one checkpoint interval and the error satisfies
// errors.Is(err, phomerr.ErrCanceled) (or ErrDeadline). A run that
// completes is byte-identical to Solve.
func SolveContext(ctx context.Context, q *graph.Graph, h *graph.ProbGraph, opts *Options) (*Result, error) {
	cp, err := CompileContext(ctx, q, h, opts)
	if err != nil {
		return nil, err
	}
	return cp.EvaluateOptsContext(ctx, h.Probs(), opts)
}
