package engine

import (
	"context"
	"errors"
	"math/big"
	"sync"
	"testing"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/instance"
	"phom/internal/phomerr"
)

func instPath(probs ...*big.Rat) *graph.ProbGraph {
	h := graph.NewProbGraph(graph.UnlabeledPath(len(probs)))
	for i, p := range probs {
		if err := h.SetProb(i, p); err != nil {
			panic(err)
		}
	}
	return h
}

func TestInstanceRegistryLifecycle(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()

	in, err := e.CreateInstance("alpha", instPath(big.NewRat(1, 2)))
	if err != nil {
		t.Fatalf("CreateInstance: %v", err)
	}
	if in.ID() != "alpha" {
		t.Fatalf("id = %q", in.ID())
	}
	if _, err := e.CreateInstance("alpha", instPath(big.NewRat(1, 2))); !errors.Is(err, phomerr.ErrBadInput) {
		t.Fatalf("duplicate id = %v, want ErrBadInput", err)
	}
	minted, err := e.CreateInstance("", instPath(big.NewRat(1, 3)))
	if err != nil {
		t.Fatalf("CreateInstance(minted): %v", err)
	}
	if minted.ID() == "" || minted.ID() == "alpha" {
		t.Fatalf("minted id = %q", minted.ID())
	}
	if got := e.ListInstances(); len(got) != 2 || got[0] != "alpha" {
		t.Fatalf("ListInstances = %v", got)
	}
	if s := e.Stats(); s.Instances != 2 {
		t.Fatalf("Stats.Instances = %d", s.Instances)
	}
	if _, ok := e.Instance("alpha"); !ok {
		t.Fatal("Instance(alpha) not found")
	}
	if !e.DeleteInstance("alpha") || e.DeleteInstance("alpha") {
		t.Fatal("DeleteInstance idempotence broken")
	}
	if _, ok := e.Instance("alpha"); ok {
		t.Fatal("deleted instance still resolvable")
	}
	if _, _, err := e.InstanceJob("alpha", Job{Query: graph.UnlabeledPath(1)}); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("InstanceJob on deleted = %v, want ErrNoInstance", err)
	}
	if _, err := e.ApplyDelta("alpha", -1, []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: graph.RatOne}}); !errors.Is(err, ErrNoInstance) {
		t.Fatalf("ApplyDelta on deleted = %v, want ErrNoInstance", err)
	}
}

// TestDeltaInvalidatesOnlyTouchedInstance is the targeted-invalidation
// pin: a delta evicts exactly the touched instance's memoized results.
// A sibling instance's entries and a plain stateless job's entry keep
// serving cache hits.
func TestDeltaInvalidatesOnlyTouchedInstance(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	q := graph.UnlabeledPath(1)

	if _, err := e.CreateInstance("a", instPath(big.NewRat(1, 2), big.NewRat(1, 3))); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateInstance("b", instPath(big.NewRat(1, 5), big.NewRat(1, 7))); err != nil {
		t.Fatal(err)
	}
	stateless := Job{Query: q, Instance: instPath(big.NewRat(2, 3))}

	runInst := func(id string) JobResult {
		job, _, err := e.InstanceJob(id, Job{Query: q})
		if err != nil {
			t.Fatalf("InstanceJob(%s): %v", id, err)
		}
		r := e.Do(job)
		if r.Err != nil {
			t.Fatalf("Do(%s): %v", id, r.Err)
		}
		return r
	}
	// Warm all three cache entries, then confirm they hit.
	runInst("a")
	runInst("b")
	if r := e.Do(stateless); r.Err != nil {
		t.Fatal(r.Err)
	}
	if !runInst("a").CacheHit || !runInst("b").CacheHit || !e.Do(stateless).CacheHit {
		t.Fatal("expected warm cache hits before the delta")
	}

	if _, err := e.ApplyDelta("a", -1, []instance.Delta{
		{Op: instance.OpSetProb, From: 0, To: 1, Prob: big.NewRat(3, 4)},
	}); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	ra := runInst("a")
	if ra.CacheHit {
		t.Fatal("touched instance served a stale cached result after the delta")
	}
	// The fresh result reflects the new probability: 1 − (1−3/4)(1−1/3)
	// for the single-edge query on the two-edge path = … just compare to
	// a from-scratch solve.
	snap, _ := e.Instance("a")
	want, err := core.Solve(q, snap.Snapshot().H, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Result.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("post-delta result %s != scratch %s", ra.Result.Prob.RatString(), want.Prob.RatString())
	}
	if !runInst("b").CacheHit {
		t.Fatal("sibling instance's cache entry was evicted")
	}
	if !e.Do(stateless).CacheHit {
		t.Fatal("stateless job's cache entry was evicted")
	}
	if s := e.Stats(); s.DeltasApplied != 1 {
		t.Fatalf("DeltasApplied = %d, want 1", s.DeltasApplied)
	}
}

// TestStructuralDeltaMigratesPlan pins the eager plan migration: after
// an edge delta on a tracked instance the new structure's plan is
// already in the cache (the next solve is a plan hit, not a compile),
// produced by the incremental splice.
func TestStructuralDeltaMigratesPlan(t *testing.T) {
	e := New(Options{Workers: 2})
	defer e.Close()
	q := graph.UnlabeledPath(1)
	// Two disjoint paths: removing one edge touches one component only.
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	h.MustSetEdgeProb(0, 1, big.NewRat(1, 2))
	if _, err := e.CreateInstance("m", h); err != nil {
		t.Fatal(err)
	}
	job, ver, err := e.InstanceJob("m", Job{Query: q})
	if err != nil || ver != 1 {
		t.Fatalf("InstanceJob: %v (version %d)", err, ver)
	}
	if r := e.Do(job); r.Err != nil {
		t.Fatal(r.Err)
	}
	before := e.Stats()
	if before.PlanCompiles != 1 {
		t.Fatalf("PlanCompiles = %d, want 1", before.PlanCompiles)
	}

	res, err := e.ApplyDelta("m", 1, []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !res.Structural || res.New.Version != 2 {
		t.Fatalf("ApplyRes = %+v", res)
	}
	after := e.Stats()
	if after.IncrementalRecompiles != before.IncrementalRecompiles+1 {
		t.Fatalf("IncrementalRecompiles = %d, want %d", after.IncrementalRecompiles, before.IncrementalRecompiles+1)
	}
	if after.FullRecompiles != before.FullRecompiles {
		t.Fatalf("FullRecompiles moved: %d", after.FullRecompiles)
	}

	job2, ver2, err := e.InstanceJob("m", Job{Query: q})
	if err != nil || ver2 != 2 {
		t.Fatalf("InstanceJob v2: %v (version %d)", err, ver2)
	}
	r2 := e.Do(job2)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.PlanHit {
		t.Fatal("post-delta solve compiled instead of hitting the migrated plan")
	}
	final := e.Stats()
	if final.PlanCompiles != before.PlanCompiles {
		t.Fatalf("post-delta solve ran a compile: %d", final.PlanCompiles)
	}
	snap, _ := e.Instance("m")
	want, err := core.Solve(q, snap.Snapshot().H, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Result.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("migrated plan answered %s, scratch %s", r2.Result.Prob.RatString(), want.Prob.RatString())
	}
}

// TestApplyDeltaConflictThroughEngine pins the typed conflict surface.
func TestApplyDeltaConflictThroughEngine(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.CreateInstance("c", instPath(big.NewRat(1, 2))); err != nil {
		t.Fatal(err)
	}
	_, err := e.ApplyDelta("c", 99, []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: graph.RatOne}})
	if !errors.Is(err, phomerr.ErrConflict) {
		t.Fatalf("stale CAS through engine = %v, want ErrConflict", err)
	}
	if s := e.Stats(); s.DeltasApplied != 0 {
		t.Fatalf("failed delta counted: %d", s.DeltasApplied)
	}
}

// TestApplyRacesSolves drives concurrent deltas (probability and
// structural) against solves and streams on the same instance under the
// race detector: every solve must answer some published version
// exactly, with no torn state. COW means a solve that resolved its
// snapshot before a delta finishes against the pre-delta version.
func TestApplyRacesSolves(t *testing.T) {
	e := New(Options{Workers: 4})
	defer e.Close()
	g, _ := graph.DisjointUnion(graph.UnlabeledPath(2), graph.UnlabeledPath(2))
	h := graph.NewProbGraph(g)
	if _, err := e.CreateInstance("race", h); err != nil {
		t.Fatal(err)
	}
	q := graph.UnlabeledPath(1)
	ctx := context.Background()

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	// Writer: alternates probability drifts with a remove/add flip of
	// the same edge (structural both ways).
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			var batch []instance.Delta
			switch k % 4 {
			case 0, 1:
				batch = []instance.Delta{{Op: instance.OpSetProb, From: 0, To: 1, Prob: big.NewRat(int64(1+k%5), 6)}}
			case 2:
				batch = []instance.Delta{{Op: instance.OpRemoveEdge, From: 3, To: 4}}
			case 3:
				batch = []instance.Delta{{Op: instance.OpAddEdge, From: 3, To: 4, Label: graph.Unlabeled, Prob: big.NewRat(1, 2)}}
			}
			if _, err := e.ApplyDelta("race", -1, batch); err != nil {
				t.Errorf("ApplyDelta: %v", err)
				return
			}
		}
	}()
	// Readers: single solves and streams against whatever snapshot
	// InstanceJob resolves.
	for w := 0; w < 3; w++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for k := 0; k < 40; k++ {
				job, _, err := e.InstanceJob("race", Job{Query: q})
				if err != nil {
					t.Errorf("InstanceJob: %v", err)
					return
				}
				if k%2 == 0 {
					if r := e.DoContext(ctx, job); r.Err != nil {
						t.Errorf("DoContext: %v", r.Err)
						return
					}
					continue
				}
				jobs := []Job{job, job}
				for sr := range e.Stream(ctx, jobs) {
					if sr.Err != nil {
						t.Errorf("Stream: %v", sr.Err)
						return
					}
				}
			}
		}()
	}
	// Readers run a fixed number of iterations; once they are done the
	// writer has raced against every one of them and can stop.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()

	// Post-race coherence: a final solve equals a from-scratch solve of
	// the final snapshot.
	job, _, err := e.InstanceJob("race", Job{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Do(job)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	snap, _ := e.Instance("race")
	want, err := core.Solve(q, snap.Snapshot().H, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Result.Prob.RatString() != want.Prob.RatString() {
		t.Fatalf("final solve %s != scratch %s", r.Result.Prob.RatString(), want.Prob.RatString())
	}
}

// TestInstanceJobKeysFollowEdits: the keys InstanceJob derives ride on
// the returned job, but a caller that then swaps the query, the
// instance or the options gets keys for what it runs — the same answer
// and the same memo entry as a plain job with those inputs.
func TestInstanceJobKeysFollowEdits(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	if _, err := e.CreateInstance("a", instPath(big.NewRat(1, 2), big.NewRat(1, 3), big.NewRat(1, 5))); err != nil {
		t.Fatal(err)
	}
	job, _, err := e.InstanceJob("a", Job{Query: graph.UnlabeledPath(1)})
	if err != nil {
		t.Fatal(err)
	}
	other := instPath(big.NewRat(2, 3), big.NewRat(1, 7), big.NewRat(3, 4))
	edits := map[string]func(j *Job){
		"query":    func(j *Job) { j.Query = graph.UnlabeledPath(2) },
		"queries":  func(j *Job) { j.Query, j.Queries = nil, []*graph.Graph{graph.UnlabeledPath(3)} },
		"instance": func(j *Job) { j.Instance = other },
		"options":  func(j *Job) { j.Opts = &core.Options{Precision: core.PrecisionFast} },
	}
	for name, edit := range edits {
		edited := job
		edit(&edited)
		plain := edited
		plain.derived = nil
		kEdited, err := jobKeys(edited)
		if err != nil {
			t.Fatal(err)
		}
		kPlain, err := jobKeys(plain)
		if err != nil {
			t.Fatal(err)
		}
		if kEdited.key != kPlain.key || kEdited.structKey != kPlain.structKey {
			t.Fatalf("%s edit ran under the keys InstanceJob derived for the unedited job", name)
		}
		got, want := e.Do(edited), e.Do(plain)
		if got.Err != nil || want.Err != nil || got.Result.Prob.RatString() != want.Result.Prob.RatString() {
			t.Fatalf("%s edit: %v %v vs %v %v", name, got.Result, got.Err, want.Result, want.Err)
		}
	}
	if k, _ := jobKeys(job); k != job.derived {
		t.Fatal("an unedited instance job re-derived its keys")
	}
}
