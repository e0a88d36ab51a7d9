// Package plan defines compiled solver plans: probability-independent
// evaluation artifacts that split PHom solving into a structural
// *compile* phase and a linear *evaluate* phase.
//
// Every tractable cell of the paper (Propositions 3.6, 4.10, 4.11 and
// 5.4/5.5, with Lemma 3.7 for disconnected instances) factors the same
// way: the expensive part of the algorithm — lineage construction,
// automaton compilation, class-driven normalization — depends only on
// the *structure* of the query and instance graphs, while the edge
// probabilities enter exclusively through a final linear dynamic program
// over a β-acyclic lineage or a d-DNNF. A Plan captures the output of
// the structural phase; Lower unrolls its linear phase into the flat
// Program IR — straight-line code over a register file — which is the
// one production evaluator.
//
// Plans therefore amortize: one compilation serves arbitrarily many
// probability assignments over the same graph pair, which is the
// dominant serving pattern (what-if analysis, probability sweeps,
// streaming weight updates). Package engine caches compiled plans keyed
// by the structure-only job hash of package graphio, and package core
// builds them via the compile functions of this package.
//
// A Program executes on two numeric substrates: Exec interprets it over
// exact rationals, and the interval kernel (ExecFloat for one vector,
// ExecFloatBatch for many) over float64 intervals with per-op
// directed-rounding error tracking, returning a certified Enclosure of
// the exact answer. Package core routes between the substrates per the
// caller's precision options. The substrate dynamic programs
// (betadnf.IntervalSystem.Prob, betadnf.CompiledChain.Prob,
// ddnnf.Circuit.Prob) stay as the tests' differential reference.
//
// Plans and Programs are immutable after construction and safe for
// concurrent use; every Exec returns a freshly allocated *big.Rat.
package plan
