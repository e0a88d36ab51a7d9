package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"sort"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/phomerr"
)

// This file is the engine's batched reweight path. Production reweight
// traffic — one structure, many probability vectors — arrives at
// Stream/SolveBatch as K jobs differing only in probabilities. Run
// individually, each pays goroutine spawn, canonicalization and key
// hashing, a plan-cache fetch and a full interpreter walk. Grouped,
// the K lanes share one key-derivation pass (graphio.BatchJobKeys
// amortizes the canonical prefix), one plan fetch and one vectorized
// kernel dispatch (core.EvaluateBatchOptsContext): per-lane cost drops
// to the probability-suffix hash and the lane's arithmetic. Grouping
// is invisible in results — every lane's outcome matches what
// DoContext would have returned — and visible in Stats.BatchRuns and
// Stats.BatchLanes.

// batchMaxLanes caps the width of one batched kernel dispatch; wider
// groups are chunked. The cap bounds the kernel's register matrix
// (NumRegs × lanes enclosures) and keeps per-chunk latency compatible
// with completion-order streaming.
const batchMaxLanes = 256

// probsSeed seeds the in-group dedup fingerprint; per-process, like any
// maphash seed.
var probsSeed = maphash.MakeSeed()

// probsFingerprint hashes inst's probability assignment into a cheap
// 64-bit bucket key for in-group dedup when memoization is off: equal
// assignments always hash equal, and bucket collisions are resolved by
// sameProbs. buf is a reusable scratch buffer, returned for the next
// call.
func probsFingerprint(inst *graph.ProbGraph, buf []byte) (uint64, []byte) {
	buf = buf[:0]
	var b [8]byte
	for i := 0; i < inst.G.NumEdges(); i++ {
		p := inst.Prob(i)
		if n, d := p.Num(), p.Denom(); n.IsInt64() && d.IsInt64() {
			binary.LittleEndian.PutUint64(b[:], uint64(n.Int64()))
			buf = append(buf, b[:]...)
			binary.LittleEndian.PutUint64(b[:], uint64(d.Int64()))
			buf = append(buf, b[:]...)
		} else {
			buf = append(buf, 0xff)
			buf = append(buf, p.RatString()...)
			buf = append(buf, 0xff)
		}
	}
	return maphash.Bytes(probsSeed, buf), buf
}

// sameProbs reports whether two same-graph instances carry identical
// probability assignments, comparing numerators and denominators
// directly (big.Rat is normalized, and this avoids Rat.Cmp's allocating
// cross-multiplication).
func sameProbs(a, b *graph.ProbGraph) bool {
	if a == b {
		return true
	}
	for i := 0; i < a.G.NumEdges(); i++ {
		pa, pb := a.Prob(i), b.Prob(i)
		if pa.Num().Cmp(pb.Num()) != 0 || pa.Denom().Cmp(pb.Denom()) != 0 {
			return false
		}
	}
	return true
}

// batchGroups partitions a Stream batch into batchable groups (slices
// of job indices, each with at least 2 and at most batchMaxLanes
// lanes) and the remaining singles. Jobs group when they share the
// query graph, the instance's underlying graph value (pointer
// identity — the cheap, sound test; reweight producers share it via
// graph.ProbGraph.CloneProbs), the options fingerprint and the per-job
// Timeout (equal budgets become one group deadline, started when the
// group starts — the moment each lane's own clock would have started),
// and use the single-query form.
func batchGroups(jobs []Job) (groups [][]int, singles []int) {
	type groupKey struct {
		q       *graph.Graph
		g       *graph.Graph
		fp      string
		timeout time.Duration
	}
	idx := make(map[groupKey][]int)
	var order []groupKey
	for i, job := range jobs {
		if job.Query == nil || len(job.Queries) != 0 || job.Instance == nil {
			singles = append(singles, i)
			continue
		}
		k := groupKey{q: job.Query, g: job.Instance.G, fp: job.Opts.Fingerprint(), timeout: job.Timeout}
		if _, ok := idx[k]; !ok {
			order = append(order, k)
		}
		idx[k] = append(idx[k], i)
	}
	for _, k := range order {
		lanes := idx[k]
		for len(lanes) > batchMaxLanes {
			groups = append(groups, lanes[:batchMaxLanes])
			lanes = lanes[batchMaxLanes:]
		}
		if len(lanes) >= 2 {
			groups = append(groups, lanes)
		} else {
			singles = append(singles, lanes...)
		}
	}
	return groups, singles
}

// runBatchGroup executes one group of same-structure jobs: derive all
// lane keys in one pass, serve memo-cache hits immediately, and run the
// remaining lanes through the batched kernel on a worker. It emits
// exactly one StreamResult per lane.
func (e *Engine) runBatchGroup(ctx context.Context, out chan<- StreamResult, jobs []Job, lanes []int) {
	emitErr := func(idxs []int, err error) {
		for _, i := range idxs {
			out <- StreamResult{Index: i, JobResult: JobResult{Err: err}}
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		emitErr(lanes, ErrClosed)
		return
	}
	e.active.Add(1)
	e.stats.Submitted += uint64(len(lanes))
	e.stats.BatchRuns++
	e.stats.BatchLanes += uint64(len(lanes))
	e.mu.Unlock()
	defer e.active.Done()

	lead := jobs[lanes[0]]
	if lead.Timeout > 0 {
		// All lanes carry the same budget (grouping keys on it); one
		// group deadline starting now is exactly the per-job clock each
		// lane would have started at this point on the singleflight path.
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, lead.Timeout)
		defer cancelTimeout()
	}
	qs, err := lead.Disjuncts()
	if err != nil { // unreachable given grouping eligibility, kept for parity with DoContext
		e.mu.Lock()
		e.stats.Rejected += uint64(len(lanes))
		e.mu.Unlock()
		emitErr(lanes, err)
		return
	}
	canon := make([]string, len(qs))
	for i, q := range qs {
		canon[i] = graphio.CanonicalGraph(q)
	}
	sort.Strings(canon)

	instances := make([]*graph.ProbGraph, len(lanes))
	for k, i := range lanes {
		instances[k] = jobs[i].Instance
	}
	var jobKeys []string
	var structKey string
	var canonOrder []int
	if e.cache != nil {
		// One keying pass for all lanes: the canonical prefix (query
		// sections, instance header, edge lines) is derived once and only
		// the probability suffixes are hashed per lane.
		jobKeys, structKey, canonOrder = graphio.BatchJobKeys(canon, instances,
			lead.Opts.Fingerprint(), lead.Opts.StructFingerprint())
	} else {
		// Memoization off: no lane needs a memo key, so skip per-lane
		// hashing entirely — only the group-level structure key (plan
		// cache) and canonical edge order (probability transport) are
		// derived, and in-group dedup compares assignments directly.
		structKey, canonOrder = graphio.StructKeyJob(canon, lead.Instance.G, lead.Opts.StructFingerprint())
	}

	// Memo pass: lanes whose exact job was answered before are served
	// from the result cache without occupying a kernel lane.
	pending := make([]int, 0, len(lanes))
	var hits []StreamResult
	if e.cache != nil {
		e.mu.Lock()
		for k := range lanes {
			if res, ok := e.cache.get(jobKeys[k]); ok {
				e.stats.CacheHits++
				hits = append(hits, StreamResult{Index: lanes[k], JobResult: JobResult{Result: cloneResult(res), CacheHit: true}})
				continue
			}
			pending = append(pending, k)
		}
		e.mu.Unlock()
	} else {
		for k := range lanes {
			pending = append(pending, k)
		}
	}
	for _, h := range hits {
		out <- h
	}
	if len(pending) == 0 {
		return
	}

	// Deduplicate identical lanes, the in-group analogue of the per-job
	// path's singleflight: one lane per distinct job key executes, its
	// duplicates share the outcome. With memoization on, a duplicate is
	// served by the memo entry its primary populates (a cache hit, just
	// without the redundant lookup); with it off, it counts as coalesced,
	// like an in-flight waiter.
	execLanes := make([]int, 0, len(pending))
	dupOf := make(map[int]int) // lane position → index into execLanes
	if jobKeys != nil {
		primary := make(map[string]int, len(pending))
		for _, k := range pending {
			if pi, ok := primary[jobKeys[k]]; ok {
				dupOf[k] = pi
				continue
			}
			primary[jobKeys[k]] = len(execLanes)
			execLanes = append(execLanes, k)
		}
	} else {
		// No memo keys to compare — bucket lanes by a cheap 64-bit
		// fingerprint of the assignment and resolve buckets exactly.
		// Within a group the query, graph and options already match, so
		// equal assignments are exactly the lanes equal job keys would
		// have found.
		buckets := make(map[uint64][]int, len(pending))
		var fbuf []byte
		for _, k := range pending {
			var fp uint64
			fp, fbuf = probsFingerprint(instances[k], fbuf)
			dup := -1
			for _, pi := range buckets[fp] {
				if sameProbs(instances[execLanes[pi]], instances[k]) {
					dup = pi
					break
				}
			}
			if dup >= 0 {
				dupOf[k] = dup
				continue
			}
			buckets[fp] = append(buckets[fp], len(execLanes))
			execLanes = append(execLanes, k)
		}
	}
	pending = execLanes

	// Lane execution runs under the engine's lifetime context with the
	// stream's cancellation propagated in — the double bound the
	// singleflight path gets by deriving call contexts off baseCtx and
	// cancelling on waiter abandonment.
	runCtx, cancel := context.WithCancel(e.baseCtx)
	defer cancel()
	stop := context.AfterFunc(ctx, cancel)
	defer stop()

	pendInst := make([]*graph.ProbGraph, len(pending))
	for pi, k := range pending {
		pendInst[pi] = instances[k]
	}
	var outs []core.BatchOutcome
	var planHit bool
	done := make(chan struct{})
	task := func() {
		defer close(done)
		outs, planHit = e.executeBatch(runCtx, qs, lead.Opts, structKey, canonOrder, pendInst)
	}
	abort := func(err error) {
		e.mu.Lock()
		e.stats.Canceled += uint64(len(pending) + len(dupOf))
		e.mu.Unlock()
		for _, k := range pending {
			out <- StreamResult{Index: lanes[k], JobResult: JobResult{Err: err}}
		}
		for k := range dupOf {
			out <- StreamResult{Index: lanes[k], JobResult: JobResult{Err: err, Shared: true}}
		}
	}
	// A group that is dead on arrival — stream already cancelled, or a
	// per-job deadline that expired before dispatch — must not execute.
	// The select below would also notice, but when a worker slot and
	// ctx.Done() are both ready it picks randomly, and the AfterFunc
	// propagation into runCtx is asynchronous, so a short group could
	// run to completion without ever observing the expired context.
	// Checking synchronously here makes the outcome deterministic.
	if err := phomerr.FromContext(ctx); err != nil {
		abort(err)
		return
	}
	// Hand the group to a worker, honoring the promptness contract: a
	// cancelled stream does not sit in the queue.
	select {
	case e.jobs <- task:
	case <-ctx.Done():
		abort(phomerr.FromContext(ctx))
		return
	}
	<-done

	if e.cache != nil {
		e.mu.Lock()
		for pi, k := range pending {
			if outs[pi].Err == nil {
				e.cache.add(jobKeys[k], outs[pi].Result)
			}
		}
		e.mu.Unlock()
	}
	for pi, k := range pending {
		jr := JobResult{Err: outs[pi].Err, PlanHit: planHit}
		if outs[pi].Err == nil {
			jr.Result = cloneResult(outs[pi].Result)
		}
		out <- StreamResult{Index: lanes[k], JobResult: jr}
	}
	for k, pi := range dupOf {
		jr := JobResult{Err: outs[pi].Err}
		if outs[pi].Err == nil {
			jr.Result = cloneResult(outs[pi].Result)
		}
		e.mu.Lock()
		if e.cache != nil && outs[pi].Err == nil {
			// The primary's result is in the memo cache by now; serving
			// the duplicate from it is a cache hit minus the lookup.
			jr.CacheHit = true
			e.stats.CacheHits++
		} else {
			jr.Shared = true
			e.stats.Coalesced++
		}
		e.mu.Unlock()
		out <- StreamResult{Index: lanes[k], JobResult: jr}
	}
}

// executeBatch runs one group's pending lanes on the calling worker:
// it acquires the group's compiled plan and every lane's transported
// probabilities through acquirePlan — the protocol the per-job path
// uses — and evaluates all lanes through core's batched kernel.
// Returns one outcome per lane and whether the lanes were served by a
// cached plan.
func (e *Engine) executeBatch(ctx context.Context, qs []*graph.Graph, opts *core.Options, structKey string, canonOrder []int, instances []*graph.ProbGraph) ([]core.BatchOutcome, bool) {
	cp, probVecs, planHit, err := e.acquirePlan(ctx, qs, opts, structKey, canonOrder, instances)
	var outs []core.BatchOutcome
	if err != nil {
		outs = make([]core.BatchOutcome, len(instances))
		for k := range outs {
			outs[k] = core.BatchOutcome{Err: err}
		}
	} else {
		outs = cp.EvaluateBatchOptsContext(ctx, probVecs, opts)
	}
	e.finishBatch(outs, opts, planHit)
	return outs, planHit
}

// finishBatch applies per-lane execution accounting to a batch group's
// outcomes: every lane counts as executed (Solved), error lanes count
// like failed executions (with cancellations also counted Canceled,
// as the per-job path does for abandoned calls), plan-hit groups count
// one PlanHit per lane, and successful lanes update the precision
// counters through noteFloat's accounting.
func (e *Engine) finishBatch(outs []core.BatchOutcome, opts *core.Options, planHit bool) {
	prec := opts.EffectivePrecision()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Solved += uint64(len(outs))
	if planHit {
		e.stats.PlanHits += uint64(len(outs))
	}
	for _, o := range outs {
		if o.Err != nil {
			e.stats.Errors++
			if errors.Is(o.Err, phomerr.ErrCanceled) || errors.Is(o.Err, phomerr.ErrDeadline) {
				e.stats.Canceled++
			}
			continue
		}
		e.noteFloatLocked(prec, o.Result)
	}
}
