package core

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/phomerr"
)

// approxOpts builds approx-mode options with the loose (ε,δ) the
// solver-level statistical tests run under: the Dyer sample count stays
// in the low thousands per evaluation, so hundreds of seeds fit in a
// unit-test budget.
func approxOpts(seed uint64) *Options {
	return &Options{Precision: PrecisionApprox, Epsilon: 0.4, Delta: 0.3, Seed: seed}
}

// TestApproxAnswersWhereHard is the headline routing contract: on a
// #P-hard cell the approx mode produces a Karp–Luby estimate with
// statistical bounds, while every result field keeps its documented
// shape.
func TestApproxAnswersWhereHard(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	res, err := Solve(q, h, approxOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != PrecisionApprox || res.Method != MethodKarpLuby {
		t.Fatalf("hard-cell approx result: precision %v, method %v", res.Precision, res.Method)
	}
	if res.Bounds == nil {
		t.Fatal("approx result without Hoeffding bounds")
	}
	if res.ApproxSamples <= 0 {
		t.Fatalf("approx result drew %d samples", res.ApproxSamples)
	}
	p, _ := res.Prob.Float64()
	if p < res.Bounds.Lo || p > res.Bounds.Hi || res.Bounds.Lo < 0 || res.Bounds.Hi > 1 {
		t.Fatalf("estimate %v outside its bounds [%v, %v]", p, res.Bounds.Lo, res.Bounds.Hi)
	}
}

// TestApproxDifferentialHardCell is the solver-level half of the
// statistical soundness suite (the estimator-level half lives in
// internal/approx): on a hard cell small enough that the brute-force
// baseline is an oracle, the empirical failure rate of |p̂ − p| ≤ ε·p
// across 200 fixed seeds stays within the δ budget plus binomial slack.
func TestApproxDifferentialHardCell(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	exact, err := Solve(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactF, _ := exact.Prob.Float64()
	if exactF <= 0 {
		t.Fatalf("degenerate oracle probability %v", exactF)
	}

	// Compile once: the 200 evaluations share the plan's memoized
	// lineage DNF, so the match enumeration is paid a single time.
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Opaque() {
		t.Fatal("expected an opaque plan on the hard cell")
	}
	const seeds = 200
	const eps, delta = 0.4, 0.3
	failures := 0
	for seed := uint64(0); seed < seeds; seed++ {
		res, err := cp.EvaluateOpts(h.Probs(), approxOpts(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p, _ := res.Prob.Float64()
		if diff := p - exactF; diff > eps*exactF || diff < -eps*exactF {
			failures++
		}
	}
	// failures ~ Bin(200, q) with q ≤ δ = 0.3 by the estimator's
	// guarantee: more than δ·N + 4·√(δ(1−δ)N) ≈ 86 would put the true
	// failure rate above δ with overwhelming confidence.
	if failures > 86 {
		t.Fatalf("%d/%d runs outside ε·p (ε=%v), δ budget is %v", failures, seeds, eps, delta)
	}
}

// TestApproxDeterministicEdgesExact: probability-0/1 edges decide the
// formula, so the approx mode short-circuits to the exact answer with
// zero samples — byte-identical to the exact solver.
func TestApproxDeterministicEdgesExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := gen.RandConnected(r, 8, 6, nil)
	if g.InClass(graph.ClassUPT) || g.InClass(graph.ClassU2WP) || g.InClass(graph.ClassUDWT) {
		t.Fatal("instance accidentally fell in a tractable class")
	}
	h := graph.NewProbGraph(g)
	one := big.NewRat(1, 1)
	for i := 0; i < g.NumEdges(); i++ {
		p := one
		if i%5 == 0 {
			p = new(big.Rat)
		}
		if err := h.SetProb(i, p); err != nil {
			t.Fatal(err)
		}
	}
	q := graph.UnlabeledPath(3)
	exact, err := Solve(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(q, h, approxOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Prob.Cmp(exact.Prob) != 0 {
		t.Fatalf("deterministic edges: approx %s, exact %s", res.Prob.RatString(), exact.Prob.RatString())
	}
	if res.ApproxSamples != 0 {
		t.Fatalf("deterministic edges drew %d samples, want short-circuit", res.ApproxSamples)
	}
}

// TestApproxSeedDeterminism: equal seeds reproduce the whole Result
// byte-for-byte; distinct seeds drive distinct sample paths.
func TestApproxSeedDeterminism(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := cp.EvaluateOpts(h.Probs(), approxOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := cp.EvaluateOpts(h.Probs(), approxOpts(42))
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob.Cmp(b.Prob) != 0 || *a.Bounds != *b.Bounds || a.ApproxSamples != b.ApproxSamples {
		t.Fatalf("equal seeds disagree: %+v vs %+v", a, b)
	}
	c, err := cp.EvaluateOpts(h.Probs(), approxOpts(43))
	if err != nil {
		t.Fatal(err)
	}
	if a.Prob.Cmp(c.Prob) == 0 {
		t.Fatalf("seeds 42 and 43 produced identical estimates %s", a.Prob.RatString())
	}
}

// TestApproxTractableStaysExact: the approx mode never samples where a
// polynomial-time exact algorithm exists — a tractable plan evaluates
// exactly and reports so.
func TestApproxTractableStaysExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	q := gen.Rand1WP(r, 3, nil)
	h := gen.RandProb(r, gen.Rand2WP(r, 9, nil), 0.4)
	exact, err := Solve(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(q, h, approxOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != PrecisionExact {
		t.Fatalf("tractable approx job served precision %v, want exact", res.Precision)
	}
	if res.Method == MethodKarpLuby {
		t.Fatal("tractable approx job routed to the sampler")
	}
	if res.Prob.Cmp(exact.Prob) != 0 {
		t.Fatalf("tractable approx %s != exact %s", res.Prob.RatString(), exact.Prob.RatString())
	}
	if res.ApproxSamples != 0 || res.Bounds != nil {
		t.Fatalf("tractable approx result carries sampler fields: %+v", res)
	}
}

// TestApproxDisableFallback: with the fallback disabled a hard cell
// still refuses under exact mode — pinned, typed — while the approx
// mode answers on the very same compiled plan (the plan cache shares
// plans across precision modes, so both behaviors must coexist on one
// CompiledPlan).
func TestApproxDisableFallback(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	opts := approxOpts(3)
	opts.DisableFallback = true
	cp, err := Compile(q, h, opts)
	if err != nil {
		t.Fatalf("approx compile with DisableFallback refused: %v", err)
	}
	res, err := cp.EvaluateOpts(h.Probs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != PrecisionApprox || res.ApproxSamples <= 0 {
		t.Fatalf("nofallback approx result: %+v", res)
	}
	// The same plan under exact options keeps the pinned refusal.
	if _, err := cp.EvaluateOpts(h.Probs(), &Options{DisableFallback: true}); !errors.Is(err, phomerr.ErrIntractable) {
		t.Fatalf("exact evaluate on nofallback plan err = %v, want ErrIntractable", err)
	}
	// And plain Solve still refuses outright without approx.
	if _, err := Solve(q, h, &Options{DisableFallback: true}); !errors.Is(err, phomerr.ErrIntractable) {
		t.Fatalf("exact solve err = %v, want ErrIntractable", err)
	}
}

// TestApproxLineageMemoized: reweighting an approx plan reuses the
// extracted DNF — the match enumeration runs once per structure, not
// once per probability vector.
func TestApproxLineageMemoized(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cp.approx == nil {
		t.Fatal("opaque plan without approx state")
	}
	if _, err := cp.EvaluateOpts(h.Probs(), approxOpts(1)); err != nil {
		t.Fatal(err)
	}
	cp.approx.mu.Lock()
	first := cp.approx.dnf
	cp.approx.mu.Unlock()
	if first == nil {
		t.Fatal("lineage not memoized after first approx evaluation")
	}
	// Reweight: same structure, different probabilities.
	r := rand.New(rand.NewSource(17))
	probs := make([]*big.Rat, h.G.NumEdges())
	for i := range probs {
		probs[i] = big.NewRat(int64(1+r.Intn(7)), 8)
	}
	if _, err := cp.EvaluateOpts(probs, approxOpts(2)); err != nil {
		t.Fatal(err)
	}
	cp.approx.mu.Lock()
	second := cp.approx.dnf
	cp.approx.mu.Unlock()
	if second != first {
		t.Fatal("reweight re-extracted the lineage instead of reusing the memo")
	}
}

// TestApproxUCQ: the union path builds the disjuncts' union lineage and
// samples it; a fixed seed pins the estimate against the brute-force
// union oracle within ε·p (deterministic because the seed is).
func TestApproxUCQ(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	qs := UCQ{graph.UnlabeledPath(3), graph.UnlabeledPath(4)}
	exact, err := SolveUCQContext(context.Background(), qs, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	exactF, _ := exact.Prob.Float64()
	res, err := SolveUCQContext(context.Background(), qs, h, approxOpts(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != PrecisionApprox || res.Method != MethodKarpLuby || res.ApproxSamples <= 0 {
		t.Fatalf("UCQ approx result: %+v", res)
	}
	p, _ := res.Prob.Float64()
	if diff := p - exactF; diff > 0.4*exactF || diff < -0.4*exactF {
		t.Fatalf("UCQ approx estimate %v too far from exact %v (seed-pinned run)", p, exactF)
	}
}

// TestApproxBatchLanes: batched approx evaluation matches K independent
// single-vector calls lane for lane, and a malformed lane fails only
// itself.
func TestApproxBatchLanes(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	cp, err := Compile(q, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(23))
	good := make([]*big.Rat, h.G.NumEdges())
	for i := range good {
		good[i] = big.NewRat(int64(1+r.Intn(7)), 8)
	}
	bad := []*big.Rat{big.NewRat(1, 2)} // wrong length
	opts := approxOpts(6)
	outs := cp.EvaluateBatchOpts([][]*big.Rat{h.Probs(), bad, good}, opts)
	if len(outs) != 3 {
		t.Fatalf("got %d lanes", len(outs))
	}
	if outs[1].Err == nil || !errors.Is(outs[1].Err, phomerr.ErrBadInput) {
		t.Fatalf("malformed lane err = %v, want ErrBadInput", outs[1].Err)
	}
	for _, k := range []int{0, 2} {
		if outs[k].Err != nil {
			t.Fatalf("lane %d: %v", k, outs[k].Err)
		}
		probs := h.Probs()
		if k == 2 {
			probs = good
		}
		want, err := cp.EvaluateOpts(probs, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[k].Result
		if got.Prob.Cmp(want.Prob) != 0 || got.Precision != want.Precision || got.ApproxSamples != want.ApproxSamples {
			t.Fatalf("lane %d diverges from the single-vector call: %+v vs %+v", k, got, want)
		}
	}
}

// TestApproxFingerprintSeparation: the (ε,δ,seed) triple keys results —
// distinct approx parameters must not share a result-cache entry, and
// non-approx fingerprints ignore them entirely.
func TestApproxFingerprintSeparation(t *testing.T) {
	base := approxOpts(1)
	fps := map[string]string{
		"base":       base.Fingerprint(),
		"other-seed": approxOpts(2).Fingerprint(),
		"other-eps":  (&Options{Precision: PrecisionApprox, Epsilon: 0.2, Delta: 0.3, Seed: 1}).Fingerprint(),
		"other-del":  (&Options{Precision: PrecisionApprox, Epsilon: 0.4, Delta: 0.1, Seed: 1}).Fingerprint(),
		"exact":      (&Options{}).Fingerprint(),
	}
	seen := map[string]string{}
	for name, fp := range fps {
		if prev, dup := seen[fp]; dup {
			t.Fatalf("options %q and %q share fingerprint %q", name, prev, fp)
		}
		seen[fp] = name
	}
	// Defaults spelled out fingerprint like defaults left implicit.
	implicit := &Options{Precision: PrecisionApprox}
	explicit := &Options{Precision: PrecisionApprox, Epsilon: DefaultEpsilon, Delta: DefaultDelta}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Fatalf("default approx params fingerprint differently: %q vs %q", implicit.Fingerprint(), explicit.Fingerprint())
	}
	// Structure fingerprints ignore evaluation policy: one compiled plan
	// serves exact and approx jobs alike.
	if base.StructFingerprint() != (&Options{}).StructFingerprint() {
		t.Fatalf("StructFingerprint depends on precision: %q vs %q", base.StructFingerprint(), (&Options{}).StructFingerprint())
	}
}

// TestApproxCancellation: a pre-canceled context aborts the sampling
// loop through the solver entry point with the typed error.
func TestApproxCancellation(t *testing.T) {
	h := hardHalfInstance(t, 8, 6)
	q := graph.UnlabeledPath(3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Default (ε,δ): thousands of samples, far past the checkpoint
	// interval.
	_, err := SolveContext(ctx, q, h, &Options{Precision: PrecisionApprox})
	if !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("pre-canceled approx solve err = %v, want ErrCanceled", err)
	}
}
