package boolform

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"phom/internal/phomerr"
)

// TestShannonProbContextPreCanceled is the ROADMAP item 2 regression:
// a context that is already canceled must abort a large Shannon
// expansion promptly with the typed cancellation error, instead of
// running the exponential recursion to completion.
func TestShannonProbContextPreCanceled(t *testing.T) {
	// Large enough that a missed checkpoint would make the test hang for
	// a human-noticeable time, small enough to stay cheap when polling
	// works (the abort fires within one CheckInterval of recursion
	// nodes, long before the expansion finishes).
	r := rand.New(rand.NewSource(7))
	f := randDNF(r, 60, 48, 4)
	probs := randProbs(r, f.NumVars)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := f.ShannonProbContext(ctx, probs)
	if err == nil {
		t.Fatalf("ShannonProbContext completed (%v) under a pre-canceled context", res)
	}
	if !errors.Is(err, phomerr.ErrCanceled) {
		t.Fatalf("ShannonProbContext error = %v, want ErrCanceled", err)
	}
	if res != nil {
		t.Fatalf("ShannonProbContext returned a result alongside the error: %v", res)
	}
}

// TestShannonProbContextCompletesEqual pins that a run that completes
// under a live context equals the enumeration oracle BruteForceProb.
func TestShannonProbContextCompletesEqual(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		f := randDNF(r, 10, 6, 3)
		probs := randProbs(r, f.NumVars)
		want := f.BruteForceProb(probs)
		got, err := f.ShannonProbContext(context.Background(), probs)
		if err != nil {
			t.Fatalf("ShannonProbContext: %v", err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("ShannonProbContext = %v, BruteForceProb = %v", got, want)
		}
	}
}
