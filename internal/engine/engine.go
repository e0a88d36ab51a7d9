package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
)

// DefaultCacheSize is the default capacity of the result cache.
const DefaultCacheSize = 4096

// DefaultPlanCacheSize is the default capacity of the compiled-plan
// cache. Plans are heavier than results (they hold lineage systems and
// d-DNNF circuits), so the default is smaller than the result cache.
const DefaultPlanCacheSize = 1024

// ErrClosed is returned by Solve and SolveBatch after Close. It
// carries phomerr.CodeUnavailable, so errors.Is(err,
// phomerr.ErrUnavailable) holds and the serving layer maps it to 503.
var ErrClosed error = phomerr.New(phomerr.CodeUnavailable, "engine: closed")

// Options configures an Engine.
type Options struct {
	// Workers is the number of worker goroutines. 0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the number of memoized results. 0 means
	// DefaultCacheSize; negative disables memoization entirely
	// (in-flight deduplication still applies).
	CacheSize int
	// PlanCacheSize bounds the number of cached compiled plans, keyed by
	// job structure (probabilities stripped). 0 means
	// DefaultPlanCacheSize; negative disables plan caching, making every
	// executed job compile from scratch.
	PlanCacheSize int
	// BaseContext, when non-nil, is the lifetime context of every job
	// the engine executes: cancelling it aborts all in-flight solves at
	// their next cooperative checkpoint (they fail with
	// phomerr.ErrCanceled) and makes queued work abort on entry. The
	// serving layer wires its shutdown context here so SIGTERM stops
	// burning CPU on abandoned jobs. Nil means context.Background() —
	// jobs are then bounded only by their callers' contexts.
	BaseContext context.Context
	// PlanSnapshotPath, when non-empty, names a snapshot file for the
	// plan cache: New restores cached plans from it if it exists (a
	// warm start — restored structures serve reweights without ever
	// compiling), and Close writes the current plan cache back to it.
	// Snapshot failures never fail the engine — the snapshot is a
	// cache, not state — they are counted in Stats.SnapshotErrors (and
	// a failed save is additionally reported by Close).
	PlanSnapshotPath string
}

// Job is one evaluation: a query (or a union of conjunctive queries), a
// probabilistic instance, and solver options. It is also the v2
// request type of the public API (phom.Request): construct it
// literally or through phom.NewRequest and the functional options.
type Job struct {
	// Query is the query graph of a single conjunctive query. For a
	// union of conjunctive queries, set Queries instead and leave Query
	// nil; a one-element Queries is equivalent to Query.
	Query *graph.Graph
	// Queries are the disjuncts of a union of conjunctive queries.
	Queries []*graph.Graph
	// Instance is the probabilistic instance graph (H, π).
	Instance *graph.ProbGraph
	// Opts configures the solver; nil means defaults. Options take part
	// in the cache key (with defaults normalized, so nil and the
	// explicit default options share cache entries).
	Opts *core.Options
	// Timeout, when positive, is this job's execution budget: DoContext
	// derives a deadline that far in the future on top of its context,
	// and the job fails with phomerr.ErrDeadline when it passes. The
	// timeout is scheduling policy, not semantics, so it takes no part
	// in any cache key — two jobs differing only in Timeout share cache
	// entries and in-flight executions.
	Timeout time.Duration
	// derived carries the keys InstanceJob derived for this job, so
	// running it does not hash the instance a second time. jobKeys
	// reuses them only while the job still holds the inputs they were
	// derived from.
	derived *derivedKeys
}

func (j Job) disjuncts() []*graph.Graph {
	if len(j.Queries) > 0 {
		return j.Queries
	}
	if j.Query != nil {
		return []*graph.Graph{j.Query}
	}
	return nil
}

// Disjuncts validates the request and resolves its query set with the
// engine's canonical precedence: Queries wins when non-empty, and a
// one-element Queries is equivalent to Query (the engine has always
// collapsed one-disjunct unions onto the single-query compiler; the
// library's SolveContext instead preserves SolveUCQ's lifted routing
// for any non-nil Queries — see phom.resolveRequest). Failures are
// typed phomerr.CodeBadInput.
func (j Job) Disjuncts() ([]*graph.Graph, error) {
	qs := j.disjuncts()
	if len(qs) == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "phom: request has no query graph")
	}
	for _, q := range qs {
		if q == nil {
			return nil, phomerr.New(phomerr.CodeBadInput, "phom: nil query graph in request")
		}
	}
	if j.Instance == nil {
		return nil, phomerr.New(phomerr.CodeBadInput, "phom: request has no instance graph")
	}
	return qs, nil
}

// JobResult is the outcome of one Job in a batch.
type JobResult struct {
	Result *core.Result
	Err    error
	// CacheHit reports that the result was served from the memo cache
	// without running the solver.
	CacheHit bool
	// Shared reports that the job was coalesced onto an identical job
	// already in flight (singleflight) rather than executed itself.
	Shared bool
	// PlanHit reports that this call executed the job by evaluating a
	// cached compiled plan (a structure match with different
	// probabilities) instead of compiling from scratch. It is false for
	// results served from the result cache or coalesced onto another
	// call.
	PlanHit bool
}

// Stats is a snapshot of engine counters. The JSON tags match the
// snake_case wire style of cmd/phomserve, which exposes these counters.
type Stats struct {
	// Submitted counts jobs accepted by Solve, SolveUCQ, Do and
	// SolveBatch (including ones that later failed).
	Submitted uint64 `json:"submitted"`
	// Solved counts jobs actually executed by a worker.
	Solved uint64 `json:"solved"`
	// CacheHits counts jobs answered from the memo cache.
	CacheHits uint64 `json:"cache_hits"`
	// Coalesced counts jobs deduplicated onto an identical in-flight job.
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts jobs refused before execution (no query, no
	// instance, …).
	Rejected uint64 `json:"rejected"`
	// Errors counts executed jobs whose solver returned an error
	// (cancelled executions included).
	Errors uint64 `json:"errors"`
	// Canceled counts calls abandoned because their context fired while
	// the job was queued or running — before its result (if any)
	// arrived. The execution itself additionally lands in Errors when
	// the last waiter's departure aborted it.
	Canceled uint64 `json:"canceled"`
	// PlanHits counts executed jobs evaluated against a cached compiled
	// plan (structure-only cache; the job's probabilities differed from
	// every memoized result), whether or not the evaluation succeeded.
	PlanHits uint64 `json:"plan_hits"`
	// PlanCompiles counts executed jobs that compiled a fresh plan.
	PlanCompiles uint64 `json:"plan_compiles"`
	// BatchRuns counts batched executions: groups of same-structure,
	// same-options reweight jobs that Stream/SolveBatch routed through
	// the vectorized kernel as one dispatch (each chunk of up to
	// batchMaxLanes lanes is one run).
	BatchRuns uint64 `json:"batch_runs"`
	// BatchLanes counts the jobs carried by those batched runs — lanes
	// served from the memo cache included, kernel-evaluated or not.
	BatchLanes uint64 `json:"batch_lanes"`
	// FloatFast counts executed jobs that requested the float64 fast
	// path (precision fast or auto) and were answered by it — the
	// result carries a certified error bound instead of an exact
	// rational.
	FloatFast uint64 `json:"float_fast"`
	// FloatFallbacks counts executed jobs that requested the fast path
	// but were answered by exact rational arithmetic instead: the
	// certified enclosure was wider than the tolerance (auto), the
	// plan was opaque, or the float kernel could not produce a finite
	// bound. Fallback results are byte-identical to precision-exact
	// ones.
	FloatFallbacks uint64 `json:"float_fallbacks"`
	// ApproxRuns counts executed jobs answered by the Karp–Luby
	// estimator (precision approx on a #P-hard cell). Approx jobs that
	// landed on a tractable cell answered exactly and count nowhere —
	// neither here nor in the float counters.
	ApproxRuns uint64 `json:"approx_runs"`
	// ApproxSamples totals the Monte-Carlo samples drawn across
	// ApproxRuns (a run whose lineage short-circuited exactly
	// contributes zero).
	ApproxSamples uint64 `json:"approx_samples"`
	// PlansLoaded counts plan records restored into the plan cache by
	// LoadPlans (including the boot restore of Options.PlanSnapshotPath).
	PlansLoaded uint64 `json:"plans_loaded"`
	// PlansSaved counts plan records written by SavePlans (including
	// the Close snapshot of Options.PlanSnapshotPath).
	PlansSaved uint64 `json:"plans_saved"`
	// SnapshotErrors counts failed snapshot restores and saves
	// (malformed snapshot files, filesystem errors). A missing boot
	// snapshot is a cold start, not an error.
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// DeltasApplied counts individual instance deltas committed through
	// ApplyDelta (batches count once per delta, failed batches not at
	// all).
	DeltasApplied uint64 `json:"deltas_applied"`
	// IncrementalRecompiles counts tracked plans carried across a
	// structural delta by the component-localized splice
	// (core.PatchCompile reusing untouched parts).
	IncrementalRecompiles uint64 `json:"incremental_recompiles"`
	// FullRecompiles counts tracked plans a structural delta forced
	// through a from-scratch compile — the splice was not provably
	// local (route change, component merge touching everything, UCQ
	// plan).
	FullRecompiles uint64 `json:"full_recompiles"`
	// Instances is the current number of live registered instances.
	Instances int `json:"instances"`
	// CacheLen is the current number of memoized results.
	CacheLen int `json:"cache_len"`
	// PlanCacheLen is the current number of cached compiled plans.
	PlanCacheLen int `json:"plan_cache_len"`
}

// call is one singleflight execution shared by all identical jobs that
// arrive while it is in flight. Its context is derived from the
// engine's base context and reference-counted over the waiters: every
// caller that abandons the call (its own context fired) decrements
// waiters, and when the last one leaves the call's context is
// cancelled, so the worker stops computing a result nobody wants at
// its next cooperative checkpoint. waiters is guarded by the engine
// mutex.
type call struct {
	done    chan struct{}
	res     *core.Result
	err     error
	waiters int
	cancel  context.CancelFunc
	// abandoned is set (under the engine mutex) once nobody can ever
	// receive this call's result: the last waiter left, or the leader
	// withdrew before enqueueing. New arrivals must not coalesce onto
	// an abandoned call — its context is cancelled and cannot be
	// revived — they replace it in the in-flight table instead.
	abandoned bool
}

// Engine is a concurrent batch evaluator. Create with New; an Engine
// must not be copied. All methods are safe for concurrent use.
type Engine struct {
	workers  int
	jobs     chan func()
	wg       sync.WaitGroup // worker goroutines
	snapPath string         // Options.PlanSnapshotPath
	baseCtx  context.Context
	baseStop context.CancelFunc // releases baseCtx's child registration on Close

	mu         sync.Mutex
	closed     bool
	active     sync.WaitGroup // Solve/SolveBatch calls in flight, for Close
	inflight   map[string]*call
	cache      *lruCache[*core.Result]       // nil when memoization is disabled
	plans      *lruCache[*core.CompiledPlan] // nil when plan caching is disabled
	planFlight map[string]chan struct{}      // structures being compiled right now
	instances  map[string]*instEntry         // live named instances (instances.go)
	stats      Stats
}

// New starts an Engine with the given options. When
// Options.PlanSnapshotPath names an existing snapshot, the plan cache
// is warm-started from it before the engine accepts jobs; restore
// failures are counted (Stats.SnapshotErrors) but never prevent
// startup, since the snapshot is only a cache.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var cache *lruCache[*core.Result]
	switch {
	case opts.CacheSize == 0:
		cache = newLRUCache[*core.Result](DefaultCacheSize)
	case opts.CacheSize > 0:
		cache = newLRUCache[*core.Result](opts.CacheSize)
	}
	var plans *lruCache[*core.CompiledPlan]
	switch {
	case opts.PlanCacheSize == 0:
		plans = newLRUCache[*core.CompiledPlan](DefaultPlanCacheSize)
	case opts.PlanCacheSize > 0:
		plans = newLRUCache[*core.CompiledPlan](opts.PlanCacheSize)
	}
	base := opts.BaseContext
	if base == nil {
		base = context.Background()
	}
	baseCtx, baseStop := context.WithCancel(base)
	e := &Engine{
		workers:    workers,
		jobs:       make(chan func()),
		snapPath:   opts.PlanSnapshotPath,
		baseCtx:    baseCtx,
		baseStop:   baseStop,
		inflight:   make(map[string]*call),
		cache:      cache,
		plans:      plans,
		planFlight: make(map[string]chan struct{}),
		instances:  make(map[string]*instEntry),
	}
	if e.snapPath != "" && e.plans != nil {
		if f, err := os.Open(e.snapPath); err == nil {
			_, lerr := e.LoadPlans(f)
			f.Close()
			if lerr != nil {
				e.mu.Lock()
				e.stats.SnapshotErrors++
				e.mu.Unlock()
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			e.stats.SnapshotErrors++ // engine not yet shared: no lock needed
		}
	}
	e.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer e.wg.Done()
			for task := range e.jobs {
				task()
			}
		}()
	}
	return e
}

// Workers returns the size of the worker pool.
func (e *Engine) Workers() int { return e.workers }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	if e.cache != nil {
		s.CacheLen = e.cache.len()
	}
	if e.plans != nil {
		s.PlanCacheLen = e.plans.len()
	}
	s.Instances = len(e.instances)
	return s
}

// Solve computes Pr(G ⇝ H) through the engine, equivalent to core.Solve
// but scheduled on the worker pool, deduplicated and memoized.
func (e *Engine) Solve(q *graph.Graph, h *graph.ProbGraph, opts *core.Options) (*core.Result, error) {
	r := e.Do(Job{Query: q, Instance: h, Opts: opts})
	return r.Result, r.Err
}

// SolveUCQ computes Pr(G₁ ∨ … ∨ G_k ⇝ H) through the engine, equivalent
// to core.SolveUCQ.
func (e *Engine) SolveUCQ(qs []*graph.Graph, h *graph.ProbGraph, opts *core.Options) (*core.Result, error) {
	r := e.Do(Job{Queries: qs, Instance: h, Opts: opts})
	return r.Result, r.Err
}

// Do runs a single job to completion, blocking until its result is
// available (possibly computed by a concurrent identical job). It is
// DoContext under context.Background(): no cancellation, no deadline.
func (e *Engine) Do(job Job) JobResult {
	return e.DoContext(context.Background(), job)
}

// DoContext runs a single job to completion under ctx, blocking until
// its result is available (possibly computed by a concurrent identical
// job) or ctx fires.
//
// Cancellation semantics: when ctx is cancelled (or its deadline — or
// the job's own Timeout — passes), DoContext returns promptly with a
// typed error (phomerr.ErrCanceled / ErrDeadline). The underlying
// execution is aborted at its next cooperative checkpoint if this was
// the only caller interested in it; if identical concurrent jobs are
// still waiting, the execution continues for them — one impatient
// client cannot cancel another's work. Results computed under an
// already-abandoned call are discarded, never cached.
func (e *Engine) DoContext(ctx context.Context, job Job) JobResult {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return JobResult{Err: ErrClosed}
	}
	e.active.Add(1)
	e.stats.Submitted++
	e.mu.Unlock()
	defer e.active.Done()

	if job.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, job.Timeout)
		defer cancel()
	}
	key, run, planHit, err := e.prepare(job)
	if err != nil {
		e.mu.Lock()
		e.stats.Rejected++
		e.mu.Unlock()
		return JobResult{Err: err}
	}
	r, completed := e.do(ctx, key, run)
	// planHit is written by run before the call's done channel closes,
	// so reading it after a completed call is race-free — but it MUST
	// not be read when the call was abandoned on ctx (the worker may
	// still be writing it). It is only meaningful when this call was
	// the one that executed (not served from cache or coalesced).
	if completed && !r.CacheHit && !r.Shared && *planHit {
		r.PlanHit = true
	}
	return r
}

// SolveBatch evaluates all jobs concurrently on the worker pool and
// returns their results in job order. Identical jobs (within the batch
// or with other concurrent callers) are solved once and shared; results
// of previously solved jobs come from the cache. The call blocks until
// every job is done; per-job failures are reported in the corresponding
// JobResult, not by failing the batch.
func (e *Engine) SolveBatch(jobs []Job) []JobResult {
	return e.SolveBatchContext(context.Background(), jobs)
}

// SolveBatchContext is SolveBatch under a context: every job runs as
// DoContext(ctx, job), so cancelling ctx mid-batch makes the remaining
// jobs fail fast with phomerr.ErrCanceled (already-finished results
// are kept) and the call still returns one JobResult per job. It is
// exactly Stream drained into a job-ordered slice — one fan-out
// implementation serves both shapes.
func (e *Engine) SolveBatchContext(ctx context.Context, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	for sr := range e.Stream(ctx, jobs) {
		out[sr.Index] = sr.JobResult
	}
	return out
}

// StreamResult is one completed job of a Stream call: the result (or
// error) of jobs[Index].
type StreamResult struct {
	// Index is the job's position in the Stream input slice.
	Index int
	JobResult
}

// Stream evaluates all jobs concurrently and delivers results in
// completion order, as they become available, instead of buffering the
// whole batch: huge batches start yielding answers after the first job
// finishes, and the caller's memory stays bounded by what it retains.
//
// The returned channel yields exactly one StreamResult per job — fast
// jobs first, each carrying its input index — and is then closed,
// always, whether or not ctx fires. The channel's buffer holds the
// whole batch, so delivery never blocks: a consumer may drain at its
// own pace, stop early, or abandon the channel entirely without
// leaking the delivering goroutines. Cancelling ctx aborts the
// remaining jobs — they fail fast and their StreamResults carry the
// typed phomerr.ErrCanceled. Per-job failures arrive as StreamResults
// with Err set, like SolveBatch's.
//
// Jobs that share one query, one instance structure (graph identity —
// see graph.ProbGraph.CloneProbs) and one options fingerprint — the
// reweight pattern — are grouped and executed through the batched
// evaluation kernel: one plan fetch and one vectorized dispatch for the
// whole group instead of one interpreter walk per job (Stats.BatchRuns
// / BatchLanes). Grouping changes scheduling only, never results:
// per-lane results, errors, memo-cache interaction and cancellation
// behave as if each job ran alone.
func (e *Engine) Stream(ctx context.Context, jobs []Job) <-chan StreamResult {
	// Buffered to len(jobs): each job sends exactly once, so the sends
	// can never block and every job's result is delivered even if ctx
	// fires while the consumer is mid-drain. The buffer is the same
	// O(len(jobs)) a SolveBatch result slice costs; what Stream saves
	// is the *latency* of the barrier, not the result storage.
	out := make(chan StreamResult, len(jobs))
	groups, singles := batchGroups(jobs)
	go func() {
		// Bound the submission fan-out like the historical SolveBatch:
		// a slot is acquired *before* spawning, so a million-job stream
		// holds at most a few goroutines per worker alive at a time
		// rather than a million stacks. Coalesced waiters holding a
		// slot cannot deadlock the stream: a waiter only ever waits on
		// a call whose leader has already enqueued, and the workers
		// drain independently of these slots. A batch group occupies
		// one slot for all its lanes.
		sem := make(chan struct{}, 4*e.workers)
		var wg sync.WaitGroup
		// launch runs f on a fresh goroutine once a slot frees up; it
		// reports false when ctx fired first (nothing was launched).
		launch := func(f func()) bool {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return false
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f()
				<-sem
			}()
			return true
		}
		for _, lanes := range groups {
			lanes := lanes
			if !launch(func() { e.runBatchGroup(ctx, out, jobs, lanes) }) {
				// Cancelled while queueing: deliver the typed error
				// directly — no worker slot, no goroutine — so the
				// consumer still sees one result per job.
				err := phomerr.FromContext(ctx)
				for _, i := range lanes {
					out <- StreamResult{Index: i, JobResult: JobResult{Err: err}}
				}
			}
		}
		for _, i := range singles {
			i := i
			if !launch(func() {
				out <- StreamResult{Index: i, JobResult: e.DoContext(ctx, jobs[i])}
			}) {
				out <- StreamResult{Index: i, JobResult: JobResult{Err: phomerr.FromContext(ctx)}}
			}
		}
		wg.Wait()
		close(out)
	}()
	return out
}

// Close shuts the engine down: it waits for in-flight jobs to finish,
// stops the workers, snapshots the plan cache to
// Options.PlanSnapshotPath if one was configured, and makes further
// submissions fail with ErrClosed. Close is idempotent: the second and
// later calls return nil without repeating any of this (in particular
// the snapshot is written at most once).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.active.Wait() // no submission can enqueue after closed is set
	close(e.jobs)
	e.wg.Wait()
	// All jobs have drained; release the engine's registration in the
	// base context (a leak otherwise when BaseContext is long-lived).
	e.baseStop()
	if e.snapPath != "" && e.plans != nil {
		if err := e.snapshotToPath(); err != nil {
			e.mu.Lock()
			e.stats.SnapshotErrors++
			e.mu.Unlock()
			return fmt.Errorf("engine: plan snapshot: %w", err)
		}
	}
	return nil
}

// snapshotToPath writes the plan cache to the configured snapshot file
// via a temp-file rename, so a crash mid-write never leaves a
// truncated snapshot behind.
func (e *Engine) snapshotToPath() error {
	dir := filepath.Dir(e.snapPath)
	tmp, err := os.CreateTemp(dir, ".phom-plans-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := e.savePlansUnchecked(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), e.snapPath)
}

// SavePlans writes a snapshot of the plan cache to w — every cached
// structural plan in its canonical binary encoding (opaque plans are
// skipped: they are closures over exponential baselines, not data).
// The snapshot can be restored by LoadPlans on any engine, including
// in another process or on another replica: plans embed their
// structure key, so a restored cache serves reweights of the same
// structures without a single compilation. Returns the number of
// plans written.
func (e *Engine) SavePlans(w io.Writer) (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	e.mu.Unlock()
	return e.savePlansUnchecked(w)
}

// savePlansUnchecked is SavePlans without the closed check, shared with
// the Close-time snapshot (which runs after closed is set).
func (e *Engine) savePlansUnchecked(w io.Writer) (int, error) {
	// Snapshot the entries under the lock, then encode and write
	// without it: plans are immutable, so only the cache walk needs
	// synchronization.
	e.mu.Lock()
	var cps []*core.CompiledPlan
	if e.plans != nil {
		// Oldest first: sequential re-insertion on load restores the
		// recency order.
		for _, cp := range e.plans.values() {
			cps = append(cps, cp)
		}
	}
	e.mu.Unlock()
	var records [][]byte
	for _, cp := range cps {
		if cp.Opaque() {
			continue
		}
		rec, err := cp.MarshalBinary()
		if err != nil {
			return 0, err
		}
		records = append(records, rec)
	}
	if err := graphio.WritePlanSnapshot(w, records); err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.stats.PlansSaved += uint64(len(records))
	e.mu.Unlock()
	return len(records), nil
}

// LoadPlans restores plans from a snapshot written by SavePlans,
// merging them into the plan cache keyed by their embedded structure
// keys (existing entries for the same structure are replaced; the
// cache bound applies as usual). Every record is fully validated —
// corrupt snapshots yield an error, never a panic or an invalid
// cached plan. Returns the number of plans restored; on error, plans
// decoded before the failure remain cached.
func (e *Engine) LoadPlans(r io.Reader) (int, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return 0, ErrClosed
	}
	if e.plans == nil {
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: plan caching is disabled")
	}
	e.mu.Unlock()
	loaded := 0
	err := graphio.ReadPlanSnapshot(r, func(rec []byte) error {
		cp := new(core.CompiledPlan)
		if err := cp.UnmarshalBinary(rec); err != nil {
			return err
		}
		e.mu.Lock()
		if e.plans != nil {
			e.plans.add(cp.StructKey(), cp)
			e.stats.PlansLoaded++
			loaded++
		}
		e.mu.Unlock()
		return nil
	})
	return loaded, err
}

// prepare validates the job (through Job.Disjuncts, the shared
// validation point) and returns its canonical key and the solver thunk
// that executes it. The thunk routes through the structure-keyed plan
// cache: a job whose structure was compiled before (under any
// probabilities) evaluates the cached plan, everything else compiles
// fresh and populates the cache. The returned bool is set by the thunk
// when it served a plan-cache hit.
func (e *Engine) prepare(job Job) (string, func(context.Context) (*core.Result, error), *bool, error) {
	k, err := jobKeys(job)
	if err != nil {
		return "", nil, nil, err
	}
	planHit := new(bool)
	run := func(ctx context.Context) (*core.Result, error) {
		return e.runPlanned(ctx, k.structKey, k.canonOrder, job, k.qs, planHit)
	}
	return k.key, run, planHit, nil
}

// derivedKeys are a job's canonical identities: the resolved disjuncts,
// the full memo key (probabilities included), the structure key
// (probabilities stripped) and the instance's canonical edge order,
// stamped with the inputs they were derived from.
type derivedKeys struct {
	query        *graph.Graph
	queries      []*graph.Graph
	instance     *graph.ProbGraph
	fp, structFP string

	qs         []*graph.Graph
	key        string
	structKey  string
	canonOrder []int
}

// jobKeys validates the job (through Job.Disjuncts, the shared
// validation point) and derives its canonical identities. It is the
// single key derivation shared by prepare and the instance registry;
// keys a job carries from InstanceJob are reused while the job still
// names the same query graphs, instance and options.
func jobKeys(job Job) (*derivedKeys, error) {
	fp, structFP := job.Opts.Fingerprint(), job.Opts.StructFingerprint()
	if k := job.derived; k != nil && k.query == job.Query && slices.Equal(k.queries, job.Queries) &&
		k.instance == job.Instance && k.fp == fp && k.structFP == structFP {
		return k, nil
	}
	qs, err := job.Disjuncts()
	if err != nil {
		return nil, err
	}
	canon := make([]string, len(qs))
	for i, q := range qs {
		canon[i] = graphio.CanonicalGraph(q)
	}
	// Disjunct order is irrelevant to the probability of a union.
	sort.Strings(canon)
	k := &derivedKeys{query: job.Query, queries: job.Queries, instance: job.Instance, fp: fp, structFP: structFP, qs: qs}
	k.key, k.structKey, k.canonOrder = graphio.JobKeys(canon, job.Instance, fp, structFP)
	return k, nil
}

// runPlanned executes a job through the compile/evaluate pipeline,
// consulting and feeding the structure-keyed plan cache. canonOrder is
// the job instance's canonical edge order, already computed during key
// derivation.
//
// Compilation is deduplicated per structure: the singleflight table of
// do() coalesces only byte-identical jobs (probabilities included), so
// without this a cold burst of reweighted variants of one structure —
// the dominant serving pattern — would compile the same plan once per
// worker. A job that finds its structure being compiled waits for that
// compilation and then evaluates the cached plan. Waiting holds a
// worker, which cannot deadlock: the flight is only ever registered by
// a task already running on some worker, which finishes independently.
func (e *Engine) runPlanned(ctx context.Context, structKey string, canonOrder []int, job Job, qs []*graph.Graph, planHit *bool) (*core.Result, error) {
	registered := false
	for {
		var ent *core.CompiledPlan
		var wait chan struct{}
		e.mu.Lock()
		if e.plans == nil {
			e.mu.Unlock()
			break
		}
		if got, ok := e.plans.get(structKey); ok {
			ent = got
		} else if ch, ok := e.planFlight[structKey]; ok {
			wait = ch
		} else {
			e.planFlight[structKey] = make(chan struct{})
			registered = true
		}
		e.mu.Unlock()
		if wait != nil {
			select {
			case <-wait:
			case <-ctx.Done():
				return nil, phomerr.FromContext(ctx)
			}
			continue // the leader finished; re-check the plan cache
		}
		if ent == nil {
			break // this call is the compile leader
		}
		// The fresh-compile path validates probabilities inside
		// core.Compile; mirror it so both paths fail identically.
		if err := phomerr.Wrap(phomerr.CodeBadInput, job.Instance.Validate()); err != nil {
			return nil, err
		}
		// A transport mismatch (only possible under a structure-hash
		// collision) falls through to a fresh compile; an evaluation
		// error does not — a fresh compile of the same structure would
		// produce the same plan and the same error, and for opaque
		// (baseline) plans retrying would re-run exponential work just
		// to fail identically.
		probs, ok := transportProbs(ent, canonOrder, job.Instance)
		if !ok {
			break
		}
		*planHit = true
		e.mu.Lock()
		e.stats.PlanHits++
		e.mu.Unlock()
		// EvaluateOpts rather than Evaluate: the job's own options pick
		// the numeric substrate, which matters for snapshot-restored
		// plans (they carry no precision of their own) and for cached
		// plans shared across precision modes.
		res, err := ent.EvaluateOptsContext(ctx, probs, job.Opts)
		e.noteFloat(job.Opts, res, err)
		return res, err
	}
	var cp *core.CompiledPlan
	var err error
	if len(qs) > 1 {
		cp, err = core.CompileUCQContext(ctx, qs, job.Instance, job.Opts)
	} else {
		cp, err = core.CompileContext(ctx, qs[0], job.Instance, job.Opts)
	}
	e.mu.Lock()
	if err == nil {
		e.stats.PlanCompiles++
		if e.plans != nil {
			e.plans.add(structKey, cp)
		}
	}
	if registered {
		// Release waiters; on error nothing was cached, so one of them
		// becomes the next leader and retries (errors are never cached).
		close(e.planFlight[structKey])
		delete(e.planFlight, structKey)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	res, evalErr := cp.EvaluateOptsContext(ctx, job.Instance.Probs(), job.Opts)
	e.noteFloat(job.Opts, res, evalErr)
	return res, evalErr
}

// noteFloat updates the dual-precision counters after an evaluation:
// jobs that requested the float fast path (precision fast or auto)
// count as FloatFast when the float kernel answered and as
// FloatFallbacks when exact arithmetic did. Exact-precision jobs touch
// neither counter. Approx jobs feed the sampler counters instead: a
// sampled answer counts ApproxRuns/ApproxSamples, an approx job that
// landed on a tractable cell (answered exactly) counts nothing.
func (e *Engine) noteFloat(opts *core.Options, res *core.Result, err error) {
	if err != nil || res == nil || opts.EffectivePrecision() == core.PrecisionExact {
		return
	}
	if opts.EffectivePrecision() == core.PrecisionApprox {
		if res.Precision == core.PrecisionApprox {
			e.mu.Lock()
			e.stats.ApproxRuns++
			e.stats.ApproxSamples += uint64(res.ApproxSamples)
			e.mu.Unlock()
		}
		return
	}
	e.mu.Lock()
	if res.Precision == core.PrecisionFast {
		e.stats.FloatFast++
	} else {
		e.stats.FloatFallbacks++
	}
	e.mu.Unlock()
}

// transportProbs maps the probability vector of h onto the edge
// numbering of the cached plan: rank k of h's canonical edge order cur
// corresponds to rank k of the compile-time instance's canonical order
// (carried by the plan itself, surviving serialization), because equal
// StructKeys mean equal canonical edge sequences.
func transportProbs(cp *core.CompiledPlan, cur []int, h *graph.ProbGraph) ([]*big.Rat, bool) {
	order := cp.CanonOrder()
	if len(cur) != len(order) || cp.NumEdges() != len(order) {
		return nil, false
	}
	probs := make([]*big.Rat, len(cur))
	for k, ei := range cur {
		probs[order[k]] = h.Prob(ei)
	}
	return probs, true
}

// do answers the keyed job from the cache, an in-flight identical call,
// or a fresh execution on the worker pool, in that order. The second
// return reports whether the call ran to completion (as opposed to
// being abandoned because ctx fired first).
func (e *Engine) do(ctx context.Context, key string, run func(context.Context) (*core.Result, error)) (JobResult, bool) {
	for {
		e.mu.Lock()
		if e.cache != nil {
			if res, ok := e.cache.get(key); ok {
				e.stats.CacheHits++
				e.mu.Unlock()
				return JobResult{Result: cloneResult(res), CacheHit: true}, true
			}
		}
		// Coalesce only onto a call somebody is still waiting for. An
		// abandoned call's context is already cancelled — joining it
		// would hand this caller a cancellation it never asked for — so
		// a fresh leader replaces it in the table (the old execution,
		// if still running, aborts at its next checkpoint and its
		// cleanup recognizes it was replaced).
		if c, ok := e.inflight[key]; ok && !c.abandoned {
			e.stats.Coalesced++
			c.waiters++
			e.mu.Unlock()
			r, completed, retry := e.wait(ctx, c, true)
			if retry {
				continue // the leader withdrew before enqueueing; start over
			}
			return r, completed
		}
		// This call is the leader: it owns a fresh execution, run under
		// a context derived from the engine's base context (so
		// engine-level shutdown aborts it) and reference-counted over
		// the waiters (so it is cancelled once nobody wants the answer
		// anymore).
		callCtx, cancel := context.WithCancel(e.baseCtx)
		c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
		e.inflight[key] = c
		e.mu.Unlock()

		task := func() {
			c.res, c.err = run(callCtx)
			cancel() // release the context's resources; idempotent
			e.mu.Lock()
			e.stats.Solved++
			if c.err != nil {
				e.stats.Errors++
			} else if e.cache != nil && !c.abandoned {
				// A short run can complete between its abandonment and
				// its next checkpoint; honor the documented invariant
				// that abandoned results never reach the cache.
				e.cache.add(key, c.res)
			}
			// Only remove the entry if it is still ours — an abandoned
			// call may have been replaced by a fresh leader under the
			// same key while this execution was winding down.
			if cur, ok := e.inflight[key]; ok && cur == c {
				delete(e.inflight, key)
			}
			e.mu.Unlock()
			close(c.done)
		}
		// Hand the task to a worker, but do not let a caller whose
		// context has fired sit in the queue: withdrawing here keeps
		// the promptness contract even when every worker is busy.
		select {
		case e.jobs <- task:
		case <-ctx.Done():
			e.mu.Lock()
			c.abandoned = true
			if cur, ok := e.inflight[key]; ok && cur == c {
				delete(e.inflight, key)
			}
			c.err = phomerr.FromContext(ctx)
			e.stats.Canceled++
			e.mu.Unlock()
			cancel()
			close(c.done) // waiters see abandoned and retry with a fresh leader
			return JobResult{Err: c.err}, false
		}
		r, completed, _ := e.wait(ctx, c, false)
		return r, completed
	}
}

// wait blocks until the call completes or ctx fires, whichever comes
// first. An abandoning waiter decrements the call's reference count
// and cancels the execution when it was the last one interested. The
// third return asks the caller to retry from scratch: the call's
// leader withdrew before the task ever reached a worker, so no result
// is coming, but this waiter's own context is still live.
func (e *Engine) wait(ctx context.Context, c *call, shared bool) (JobResult, bool, bool) {
	select {
	case <-c.done:
		if c.abandoned && shared {
			return JobResult{}, false, true
		}
		if c.err != nil {
			return JobResult{Err: c.err, Shared: shared}, true, false
		}
		return JobResult{Result: cloneResult(c.res), Shared: shared}, true, false
	case <-ctx.Done():
		e.mu.Lock()
		c.waiters--
		if c.waiters == 0 {
			c.abandoned = true
		}
		last := c.waiters == 0
		e.stats.Canceled++
		e.mu.Unlock()
		if last {
			c.cancel()
		}
		return JobResult{Err: phomerr.FromContext(ctx), Shared: shared}, false, false
	}
}

// cloneResult deep-copies a result so cache entries and singleflight
// peers never share a mutable *big.Rat (or bounds struct) with a
// caller.
func cloneResult(r *core.Result) *core.Result {
	c := &core.Result{Prob: new(big.Rat).Set(r.Prob), Method: r.Method, Precision: r.Precision, ApproxSamples: r.ApproxSamples}
	if r.Bounds != nil {
		b := *r.Bounds
		c.Bounds = &b
	}
	return c
}

// lruCache is a plain bounded LRU over canonical job keys, generic in
// the cached value (solver results, compiled plans). It is not itself
// synchronized; the Engine's mutex guards it.
type lruCache[V any] struct {
	capacity int
	order    *list.List // front = most recently used; values are *lruEntry[V]
	entries  map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUCache[V any](capacity int) *lruCache[V] {
	return &lruCache[V]{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

func (c *lruCache[V]) len() int { return c.order.Len() }

// values returns the cached values oldest-first, without touching
// recency.
func (c *lruCache[V]) values() []V {
	out := make([]V, 0, c.order.Len())
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*lruEntry[V]).val)
	}
	return out
}

func (c *lruCache[V]) get(key string) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// remove drops the entry under key, if any. It is how the instance
// registry performs targeted invalidation: a delta evicts exactly the
// touched instance's memoized results (and its superseded structural
// plans), never a neighbor's.
func (c *lruCache[V]) remove(key string) {
	if el, ok := c.entries[key]; ok {
		c.order.Remove(el)
		delete(c.entries, key)
	}
}

func (c *lruCache[V]) add(key string, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
	}
}
