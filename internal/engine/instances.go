package engine

// instances.go: the engine's registry of live named instances
// (internal/instance) and the cache discipline around their mutations.
// A solve against an instance is an ordinary engine job over the
// instance's current snapshot — same memo cache, same plan cache, same
// singleflight — plus a tracking record: the entry remembers which memo
// keys and which structural plans the instance's snapshots produced.
// ApplyDelta then keeps the caches honest with surgical precision:
//
//   - every delta (probability or structural) evicts exactly the
//     instance's own memoized results — other instances' and plain
//     stateless jobs' entries are untouched;
//   - a probability-only batch leaves every compiled plan valid (the
//     structure key did not move): the next solve is a pure reweight,
//     zero recompilation;
//   - a structural batch eagerly migrates each tracked single-query
//     plan to the new structure through core.PatchCompile — untouched
//     components are spliced copy-on-write, only components incident
//     to the delta recompile (Stats.IncrementalRecompiles) — falling
//     back to a from-scratch compile when the splice is not provably
//     local (Stats.FullRecompiles); superseded plans are dropped from
//     the plan cache.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/instance"
	"phom/internal/phomerr"
)

// ErrNoInstance is returned by instance-scoped engine methods when the
// named instance does not exist. It carries CodeBadInput; the serving
// layer distinguishes it (404, not 400) by identity.
var ErrNoInstance error = phomerr.New(phomerr.CodeBadInput, "engine: no such instance")

// trackedPlan records one structural plan an instance's solves put in
// the plan cache, with everything ApplyDelta needs to migrate it across
// a structural delta: the resolved query graphs, the normalized
// options, and the exact graph value the plan was compiled against.
type trackedPlan struct {
	qs   []*graph.Graph
	opts *core.Options
	g    *graph.Graph
}

// instEntry is the registry record of one live instance. The maps are
// guarded by the engine mutex; applyMu serializes ApplyDelta (and
// DeleteInstance) per instance so plan migration never races a
// concurrent delta's migration on the same entry.
type instEntry struct {
	inst    *instance.Instance
	applyMu chan struct{} // 1-buffered semaphore: per-instance write lock
	plans   map[string]*trackedPlan
	results map[string]struct{}
}

func (ent *instEntry) lock()   { ent.applyMu <- struct{}{} }
func (ent *instEntry) unlock() { <-ent.applyMu }

// CreateInstance registers a new live instance owning a deep copy of h.
// An empty id mints a fresh unique one. The id (minted or supplied) is
// returned; a duplicate id or an invalid instance graph fails with
// CodeBadInput.
func (e *Engine) CreateInstance(id string, h *graph.ProbGraph) (*instance.Instance, error) {
	if id == "" {
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("engine: minting instance id: %w", err)
		}
		id = "inst-" + hex.EncodeToString(buf[:])
	}
	in, err := instance.New(id, h)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if _, dup := e.instances[id]; dup {
		return nil, phomerr.New(phomerr.CodeBadInput, "engine: instance %q already exists", id)
	}
	e.instances[id] = &instEntry{
		inst:    in,
		applyMu: make(chan struct{}, 1),
		plans:   make(map[string]*trackedPlan),
		results: make(map[string]struct{}),
	}
	return in, nil
}

// Instance returns the live instance named id, or nil, false.
func (e *Engine) Instance(id string) (*instance.Instance, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.instances[id]
	if !ok {
		return nil, false
	}
	return ent.inst, true
}

// ListInstances returns the ids of all live instances, sorted.
func (e *Engine) ListInstances() []string {
	e.mu.Lock()
	ids := make([]string, 0, len(e.instances))
	for id := range e.instances {
		ids = append(ids, id)
	}
	e.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// DeleteInstance unregisters the instance and evicts its memoized
// results and tracked plans from the caches. It reports whether the
// instance existed. Solves holding the last snapshot finish unharmed
// (the snapshot is immutable); they just no longer feed the tracking.
func (e *Engine) DeleteInstance(id string) bool {
	e.mu.Lock()
	ent, ok := e.instances[id]
	if !ok {
		e.mu.Unlock()
		return false
	}
	e.mu.Unlock()
	ent.lock()
	defer ent.unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, still := e.instances[id]; !still || cur != ent {
		return false // lost a delete race; the other call did the work
	}
	delete(e.instances, id)
	e.evictLocked(ent)
	return true
}

// evictLocked drops the entry's memoized results and tracked plans from
// the caches. Caller holds e.mu.
func (e *Engine) evictLocked(ent *instEntry) {
	if e.cache != nil {
		for k := range ent.results {
			e.cache.remove(k)
		}
	}
	ent.results = make(map[string]struct{})
	if e.plans != nil {
		for sk := range ent.plans {
			e.plans.remove(sk)
		}
	}
}

// InstanceJob resolves an instance-scoped job: it loads the instance's
// current snapshot into job.Instance and registers the job's memo key
// and structural plan with the instance's tracking record, so a later
// delta can invalidate and migrate exactly this work. The returned job
// is an ordinary engine job — run it through DoContext, Stream or
// SolveBatch as usual. The snapshot's version is returned so callers
// can report which version answered.
func (e *Engine) InstanceJob(id string, job Job) (Job, uint64, error) {
	e.mu.Lock()
	ent, ok := e.instances[id]
	e.mu.Unlock()
	if !ok {
		return Job{}, 0, ErrNoInstance
	}
	snap := ent.inst.Snapshot()
	job.Instance = snap.H
	k, err := jobKeys(job)
	if err != nil {
		return Job{}, 0, err
	}
	job.derived = k
	e.mu.Lock()
	// Re-check liveness under the lock: a concurrent DeleteInstance
	// must not see its eviction silently undone by this tracking write.
	if cur, still := e.instances[id]; still && cur == ent {
		ent.results[k.key] = struct{}{}
		if _, tracked := ent.plans[k.structKey]; !tracked {
			ent.plans[k.structKey] = &trackedPlan{qs: k.qs, opts: job.Opts, g: snap.H.G}
		}
	}
	e.mu.Unlock()
	return job, snap.Version, nil
}

// ApplyDelta applies a batch of deltas to the named instance (see
// instance.Apply for atomicity and the ifVersion optimistic check) and
// keeps the engine caches coherent: the instance's memoized results are
// evicted, and — when the batch changed the structure — every tracked
// single-query plan is migrated to the new structure through
// core.PatchCompile, reusing the untouched components' compiled parts.
// Failed batches (conflict, malformed delta) change nothing.
func (e *Engine) ApplyDelta(id string, ifVersion int64, deltas []instance.Delta) (*instance.ApplyResult, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	ent, ok := e.instances[id]
	e.mu.Unlock()
	if !ok {
		return nil, ErrNoInstance
	}
	ent.lock()
	defer ent.unlock()
	res, err := ent.inst.Apply(ifVersion, deltas)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	e.stats.DeltasApplied += uint64(len(deltas))
	if e.cache != nil {
		for k := range ent.results {
			e.cache.remove(k)
		}
	}
	ent.results = make(map[string]struct{})
	var work map[string]*trackedPlan
	if res.Structural {
		work = ent.plans
		ent.plans = make(map[string]*trackedPlan)
	}
	e.mu.Unlock()
	if !res.Structural {
		return res, nil
	}

	// Structural delta: migrate each tracked plan to the new structure.
	// Compilation runs outside the engine mutex (it can be the dominant
	// cost); applyMu keeps concurrent deltas to this instance from
	// migrating over each other.
	for oldSK, tp := range work {
		var (
			cp          *core.CompiledPlan
			incremental bool
			cerr        error
		)
		e.mu.Lock()
		var old *core.CompiledPlan
		if e.plans != nil {
			old, _ = e.plans.get(oldSK)
		}
		e.mu.Unlock()
		switch {
		case old == nil:
			// Evicted since it was tracked: nothing to migrate; the next
			// solve compiles fresh through the ordinary path.
			continue
		case len(tp.qs) == 1:
			cp, incremental, cerr = core.PatchCompileContext(e.baseCtx, tp.qs[0], old, tp.g, res.New.H, tp.opts)
		default:
			// UCQ plans have no single-query splice; recompile eagerly so
			// the instance keeps serving reweights without a cold stop.
			cp, cerr = core.CompileUCQContext(e.baseCtx, tp.qs, res.New.H, tp.opts)
		}
		e.mu.Lock()
		if e.plans != nil {
			e.plans.remove(oldSK) // superseded structure
		}
		if cerr == nil && cp != nil {
			if incremental {
				e.stats.IncrementalRecompiles++
			} else {
				e.stats.FullRecompiles++
			}
			if e.plans != nil {
				e.plans.add(cp.StructKey(), cp)
			}
			if cur, still := e.instances[id]; still && cur == ent {
				ent.plans[cp.StructKey()] = &trackedPlan{qs: tp.qs, opts: tp.opts, g: res.New.H.G}
			}
		}
		// A migration error (the new structure fell off the tractable
		// cell and fallbacks are disabled, say) is not a delta error: the
		// delta committed; the next solve will surface the typed error
		// through the ordinary compile path.
		e.mu.Unlock()
	}
	return res, nil
}
