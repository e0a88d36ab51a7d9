package main

// workloads.go: the four workloads. Each one draws its structures from
// the seed, warms the servers during set-up, generates the requests of
// each phase, and checks the answers the servers gave.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"phom/internal/approx"
	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/instance"
	"phom/internal/serve"
)

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// rate is the open-loop arrival rate in requests per second, about a
	// quarter of the closed-loop throughput.
	rate float64
	// seq is the number of requests the sequential phase sends per
	// measured second.
	seq float64
	// readTail and writeTail are the reported tail percentiles of the
	// sequential phase's CPU times: the highest of p99, p95 and p90 that
	// leaves at least 10 samples beyond it, for the sample count seq
	// gives at run_seconds.
	readTail, writeTail float64
	// closedPool bounds the closed-loop phase's request pool. Its
	// requests are generated, with their reference answers, before the
	// run; the phase ends early when they run out, which leaves its
	// per-request CPU time as it is.
	closedPool int
	gated      bool
	make       func(seed int64) mix
}

// seqCount is the number of requests of the sequential phase of a run
// that measures for dur.
func (w workload) seqCount(dur time.Duration) int {
	return int(math.Round(w.seq * dur.Seconds()))
}

// mix is the workload-specific part of a run.
type mix interface {
	// prepare draws the structures (untimed).
	prepare()
	// warm is the set-up's warm-up, sent through s (timed in setup_s).
	warm(s *sender) error
	// requests generates the n requests of a phase.
	requests(phase string, n int) []*request
	// check checks the outcomes of every phase.
	check(r *report, outs []outcome, s *sender)
}

var workloads = []workload{
	{
		name:       "reweight-warm",
		why:        "steady-state serving via phomgate: 32 warmed plans (2WP/DWT/PT), 70% fast, 20% exact, 10% 16-vector reweights, 5% repeats; read CPU tail p95",
		rate:       90,
		seq:        40,
		readTail:   95,
		writeTail:  95,
		closedPool: 2000,
		gated:      true,
		make:       func(seed int64) mix { return &reweightWarm{seed: seed} },
	},
	{
		name:       "compile-cold",
		why:        "every request a never-seen 2WP/DWT/PT/labeled-DWT structure of 256-2048 edges, so plans never hit: the compile layer and its cliff; read CPU tail p90",
		rate:       17,
		seq:        160.0 / 12, // 4 blocks of coldBlock at run_seconds
		readTail:   90,
		writeTail:  95,
		closedPool: 160,
		make:       func(seed int64) mix { return &compileCold{seed: seed} },
	},
	{
		name:       "live-delta",
		why:        "writes beside reads: delta batches and fast solves on 8 live instances with tracked plans, so Apply and PatchCompile sit on the write path; CPU tails p95",
		rate:       100,
		seq:        80,
		readTail:   95,
		writeTail:  95,
		closedPool: 3000,
		make:       func(seed int64) mix { return &liveDelta{seed: seed} },
	},
	{
		name:       "approx-hard",
		why:        "#P-hard ER/BA cells answered by Karp-Luby with a fresh seed per request: plan hits, result misses, sampling-bound; read CPU tail p90",
		rate:       19,
		seq:        10,
		readTail:   90,
		writeTail:  95,
		closedPool: 240,
		make:       func(seed int64) mix { return &approxHard{seed: seed} },
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// genRequests builds n requests with f in parallel, each from its own
// generator so the result does not depend on scheduling.
func genRequests(seed int64, tag string, n int, f func(r *rand.Rand, i int) *request) []*request {
	out := make([]*request, n)
	parallel(n, conns, func(i int) { out[i] = f(subRand(seed, tag, i), i) })
	return out
}

// drawStructures draws n structures with shapes[i%len(shapes)].
func drawStructures(seed int64, tag string, n int, shapes []shape, opts func(i int) *core.Options) []*structure {
	out := make([]*structure, n)
	parallel(n, conns, func(i int) {
		out[i], _ = drawStructure(subRand(seed, tag, i), shapes[i%len(shapes)], opts(i))
	})
	return out
}

func warmStructures(s *sender, path string, sts []*structure, body func(i int, st *structure) []byte) error {
	for i, st := range sts {
		var o outcome
		s.send(&request{path: path, body: body(i, st)}, &o)
		if !o.ok() {
			return fmt.Errorf("warm %s %d: status %d %v %s", path, i, o.status, o.err, o.body)
		}
	}
	return nil
}

// reweightWarm: repeated reweights of warmed structures through the gate.
type reweightWarm struct {
	seed int64
	sts  []*structure
}

func (w *reweightWarm) prepare() {
	shapes := []shape{
		{base: graph.Class2WP, labels: labeled, edges: 128, compEdges: 32, method: core.MethodXProperty2WP},
		{base: graph.ClassDWT, labels: labeled, edges: 128, compEdges: 32, method: core.MethodBetaAcyclicDWT},
		{base: graph.ClassPT, labels: unlabeled, edges: 128, compEdges: 32, method: core.MethodAutomatonPT},
	}
	w.sts = drawStructures(w.seed, "rw-structure", 32, shapes, func(int) *core.Options { return optsFast })
}

func (w *reweightWarm) warm(s *sender) error {
	return warmStructures(s, "/reweight", w.sts, func(_ int, st *structure) []byte {
		return mustJSON(serve.ReweightRequest{SolveRequest: st.solveRequest("fast", 0)})
	})
}

// rwBlock is the request mix of reweight-warm, dealt in blocks of 20:
// one verbatim repeat of an earlier request, 13 single-vector fast
// reweights, 4 exact ones and 2 16-vector fast batches.
const (
	rwBlock  = 20
	rwFast   = 14 // slots 1..13
	rwExact  = 18 // slots 14..17; 18 and 19 are batches
	rwRepeat = 0
)

func (w *reweightWarm) requests(phase string, n int) []*request {
	src := make([]int, n) // a repeat's source request, filled in below
	reqs := genRequests(w.seed, "rw-"+phase, n, func(r *rand.Rand, i int) *request {
		slot := dealt(w.seed, "rw-mix-"+phase, i, rwBlock)
		if i > 0 && slot == rwRepeat {
			src[i] = r.Intn(i)
			return &request{repeat: true}
		}
		st := w.sts[dealt(w.seed, "rw-structure-"+phase, i, len(w.sts))]
		req := &request{path: "/reweight"}
		switch {
		case slot < rwFast:
			probs, res := reweightProbs(r, st, optsFast)
			a := answerOf(res)
			if r.Intn(8) == 0 {
				a.exact = evalExact(st, probs)
			}
			req.want = []answer{a}
			req.body = mustJSON(serve.ReweightRequest{SolveRequest: st.solveRequest("fast", 0), Probs: st.probMap(probs)})
		case slot < rwExact:
			probs, res := reweightProbs(r, st, optsExact)
			req.want = []answer{answerOf(res)}
			req.body = mustJSON(serve.ReweightRequest{SolveRequest: st.solveRequest("exact", 0), Probs: st.probMap(probs)})
		default:
			vecs := make([][]*big.Rat, 16)
			maps := make([]map[string]string, 16)
			for k := range vecs {
				vecs[k], _ = reweightProbs(r, st, optsFast)
				maps[k] = st.probMap(vecs[k])
			}
			for _, out := range st.cp.EvaluateBatchOpts(vecs, optsFast) {
				if out.Err != nil {
					panic(out.Err)
				}
				req.want = append(req.want, answerOf(out.Result))
			}
			req.body = mustJSON(serve.ReweightRequest{SolveRequest: st.solveRequest("fast", 0), ProbsBatch: maps})
		}
		return req
	})
	for i, req := range reqs {
		if req.repeat {
			*req = *reqs[src[i]] // src[i] < i: already filled in
			req.repeat = true
		}
	}
	return reqs
}

func (w *reweightWarm) check(r *report, outs []outcome, _ *sender) { r.checkStateless(outs) }

// compileCold: every request is a structure the server has never seen.
type compileCold struct{ seed int64 }

func (w *compileCold) prepare()             {}
func (w *compileCold) warm(s *sender) error { return nil }

// coldBlock lists the slots of a block of 40 consecutive compile-cold
// requests as {edges, class (an index of coldShapeFor), needle length}:
// sizes 40/30/25/5%, classes spread within each size. The slots are dealt block by block in a
// seeded order rather than drawn independently, and a phase sends whole
// blocks, so every run carries the same mix and its cost does not hinge
// on what its seed drew. ⊔2WP compiles are super-linear in component
// size and needle length (the cliff this workload exists to show): one
// 2048-edge ⊔2WP compile takes seconds, and a few would decide a run on
// their own. So ⊔2WP gets 3-edge needles and stops at 1024 edges, which
// leaves the costs around the p90 rank (512-edge ⊔2WP, 1024-edge ⊔PT)
// close together instead of straddling a gap. The tree classes get
// 5-edge needles: on their wide trees shorter needles match almost
// surely, so their answers leave the checked range.
var coldBlock = [][3]int{
	{256, 0, 3}, {256, 0, 3}, {256, 0, 3}, {256, 0, 3},
	{256, 1, 5}, {256, 1, 5}, {256, 1, 5}, {256, 1, 5},
	{256, 2, 5}, {256, 2, 5}, {256, 2, 5}, {256, 2, 5},
	{256, 3, 5}, {256, 3, 5}, {256, 3, 5}, {256, 3, 5},
	{512, 0, 3}, {512, 0, 3}, {512, 0, 3},
	{512, 1, 5}, {512, 1, 5}, {512, 1, 5},
	{512, 2, 5}, {512, 2, 5}, {512, 2, 5},
	{512, 3, 5}, {512, 3, 5}, {512, 3, 5},
	{1024, 0, 3},
	{1024, 1, 5}, {1024, 1, 5}, {1024, 1, 5}, {1024, 2, 5}, {1024, 2, 5}, {1024, 2, 5},
	{1024, 3, 5}, {1024, 3, 5}, {1024, 3, 5},
	{2048, 1, 5}, {2048, 3, 5},
}

// coldShape is the shape of compile-cold request i, from the seeded deal
// of its block.
func coldShape(seed int64, phase string, i int) shape {
	b, j := i/len(coldBlock), i%len(coldBlock)
	slot := coldBlock[subRand(seed, "cold-block-"+phase, b).Perm(len(coldBlock))[j]]
	sh := coldShapeFor(slot[1], slot[0])
	sh.length = slot[2]
	return sh
}

func coldShapeFor(class, edges int) shape {
	switch class {
	case 0:
		return shape{base: graph.Class2WP, labels: labeled, edges: edges, compEdges: edges / 2, method: core.MethodXProperty2WP}
	case 1:
		return shape{base: graph.ClassDWT, labels: unlabeled, edges: edges, compEdges: 16, method: core.MethodGradedDWT}
	case 2:
		return shape{base: graph.ClassPT, labels: unlabeled, edges: edges, compEdges: 16, method: core.MethodAutomatonPT}
	default:
		return shape{base: graph.ClassDWT, labels: labeled, edges: edges, compEdges: edges / 4, method: core.MethodBetaAcyclicDWT}
	}
}

func (w *compileCold) requests(phase string, n int) []*request {
	return genRequests(w.seed, "cold-"+phase, n, func(r *rand.Rand, i int) *request {
		sh := coldShape(w.seed, phase, i)
		st, res := drawStructure(r, sh, optsFast)
		a := answerOf(res)
		if sh.edges <= 512 && r.Intn(16) == 0 {
			a.exact = evalExact(st, st.h.Probs())
		}
		return &request{path: "/solve", want: []answer{a}, body: mustJSON(st.solveRequest("fast", 0))}
	})
}

func (w *compileCold) check(r *report, outs []outcome, _ *sender) { r.checkStateless(outs) }

// approxHard: Karp–Luby sampling on #P-hard cells, a fresh seed each.
type approxHard struct {
	seed int64
	sts  []*structure
}

// Needles whose Karp–Luby sample count falls outside this band are
// redrawn, and all have approxNeedle edges, so every clause has the same
// width: every request then costs about the same, and the cost of a run
// does not hinge on which 24 structures its seed drew.
const (
	minApproxSamples = 60000
	maxApproxSamples = 64000
	approxNeedle     = 4
)

func approxOpts(seed uint64) *core.Options {
	return &core.Options{Precision: core.PrecisionApprox, Seed: seed}
}

// coarseApprox samples a few times per clause: enough to screen needles.
var coarseApprox = &core.Options{Precision: core.PrecisionApprox, Epsilon: 0.9, Delta: 0.9, Seed: 1}

func (w *approxHard) prepare() {
	w.sts = make([]*structure, 24)
	parallel(len(w.sts), conns, func(i int) {
		r := subRand(w.seed, "approx-structure", i)
		for {
			var g *graph.Graph
			if i%2 == 0 {
				g = gen.RandErdosRenyi(r, 24+r.Intn(12), 1.5/30, labeled)
			} else {
				g = gen.RandBarabasiAlbert(r, 18+r.Intn(16), 2, labeled)
			}
			if g.NumEdges() < 34 || g.NumEdges() > 68 {
				continue
			}
			// The search samples coarsely; the clause count m it reveals
			// gives the sample count of a default-(ε,δ) request.
			q, cp, h, res := needle(r, g, core.MethodKarpLuby, approxNeedle, coarseApprox, nil)
			if q == nil {
				continue
			}
			m := int64(1)
			for approx.SampleCount(int(m), coarseApprox.Epsilon, coarseApprox.Delta) < res.ApproxSamples {
				m++
			}
			if n := approx.SampleCount(int(m), core.DefaultEpsilon, core.DefaultDelta); n < minApproxSamples || n > maxApproxSamples {
				continue
			}
			if _, _, _, v := core.PredictInput(q, h); v.Tractable {
				continue
			}
			if res, err := cp.EvaluateOpts(h.Probs(), approxOpts(1)); err != nil || !inRange(ratFloat(res.Prob)) {
				continue
			}
			w.sts[i] = newStructure(q, h, cp)
			return
		}
	})
}

func (w *approxHard) warm(s *sender) error {
	return warmStructures(s, "/solve", w.sts, func(_ int, st *structure) []byte {
		return mustJSON(st.solveRequest("approx", 1))
	})
}

func (w *approxHard) requests(phase string, n int) []*request {
	// Seeds 1 (warm-up), then a disjoint block per phase: no request
	// repeats an earlier body, so each one misses the result cache.
	base := uint64(2)
	for _, c := range phase {
		base = base*131 + uint64(c)
	}
	base <<= 24
	return genRequests(w.seed, "approx-"+phase, n, func(r *rand.Rand, i int) *request {
		st := w.sts[dealt(w.seed, "approx-structure-"+phase, i, len(w.sts))]
		seed := base + uint64(i)
		res, err := st.cp.EvaluateOpts(st.h.Probs(), approxOpts(seed))
		if err != nil {
			panic(err)
		}
		return &request{path: "/solve", want: []answer{answerOf(res)}, body: mustJSON(st.solveRequest("approx", seed))}
	})
}

func (w *approxHard) check(r *report, outs []outcome, _ *sender) { r.checkStateless(outs) }

// liveNeedle is the needle length of the tracked queries. One length
// keeps the lineage, and so the cost of the plan migrations a structural
// write triggers, alike across seeds.
const liveNeedle = 4

// liveDelta: delta batches and solves on live instances.
type liveDelta struct {
	seed  int64
	insts []*liveInstance
	reads [][][]byte // per instance, per tracked query: the solve body
}

func (w *liveDelta) prepare() {
	w.insts = make([]*liveInstance, 8)
	parallel(len(w.insts), conns, func(i int) {
		w.insts[i] = drawLiveInstance(subRand(w.seed, "live-instance", i), fmt.Sprintf("perfbench-%d", i), i%2 == 1)
	})
	for _, li := range w.insts {
		w.reads = append(w.reads, li.solveBodies())
	}
}

// drawLiveInstance draws a 512-edge instance of 16 components, ⊔2WP or
// (dwt) ⊔DWT, with 4 in-range needles to track.
func drawLiveInstance(r *rand.Rand, id string, dwt bool) *liveInstance {
	sh := shape{base: graph.Class2WP, labels: labeled, edges: 512, compEdges: 32, method: core.MethodXProperty2WP}
	if dwt {
		sh = shape{base: graph.ClassDWT, labels: labeled, edges: 512, compEdges: 32, method: core.MethodBetaAcyclicDWT}
	}
	for {
		g := sh.union(r)
		probs := randProbs(r, g.NumEdges())
		li := &liveInstance{id: id, h: withProbs(g, probs)}
		for tries := 0; len(li.queries) < 4 && tries < 8; tries++ {
			if q, _, _, _ := needle(r, g, sh.method, liveNeedle, optsFast, probs); q != nil {
				li.queries = append(li.queries, q)
			}
		}
		if len(li.queries) < 4 {
			continue
		}
		li.finish()
		return li
	}
}

// solveBodies are the fast instance-solve bodies of li's tracked
// queries.
func (li *liveInstance) solveBodies() [][]byte {
	var bodies [][]byte
	for _, q := range li.qry {
		bodies = append(bodies, mustJSON(serve.SolveRequest{Query: q, Options: &serve.SolveOptions{Precision: "fast"}}))
	}
	return bodies
}

// finish fills the wire forms of li.
func (li *liveInstance) finish() {
	ib, err := graphio.MarshalProbGraphJSON(li.h)
	if err != nil {
		panic(err)
	}
	li.inst = compactJSON(ib)
	for _, q := range li.queries {
		qb, err := graphio.MarshalProbGraphJSON(graph.NewProbGraph(q))
		if err != nil {
			panic(err)
		}
		li.qry = append(li.qry, compactJSON(qb))
	}
	for _, e := range li.h.G.Edges() {
		li.keys = append(li.keys, strconv.Itoa(int(e.From))+">"+strconv.Itoa(int(e.To)))
		li.labels = append(li.labels, e.Label)
	}
}

// createInstances registers insts on the server behind s at version 1.
func createInstances(s *sender, insts []*liveInstance) error {
	for i, li := range insts {
		var o outcome
		s.send(&request{path: "/instances", body: mustJSON(serve.CreateInstanceRequest{ID: li.id, Instance: li.inst})}, &o)
		if !o.ok() {
			return fmt.Errorf("create instance %s: status %d %v %s", li.id, o.status, o.err, o.body)
		}
		s.setVersion(i, 1)
	}
	return nil
}

func (w *liveDelta) warm(s *sender) error {
	if err := createInstances(s, w.insts); err != nil {
		return err
	}
	for i, li := range w.insts {
		for k := range li.queries {
			var o outcome
			s.send(&request{path: "/instances/" + li.id + "/solve", body: w.reads[i][k]}, &o)
			if !o.ok() {
				return fmt.Errorf("warm instance %s query %d: status %d %v %s", li.id, k, o.status, o.err, o.body)
			}
		}
	}
	return nil
}

// Live-delta requests are dealt in blocks of 8: 4 delta batches, the
// first of them structural, and 4 instance solves. Instances and tracked
// queries are dealt round robin in their own seeded blocks.
const (
	liveBlock      = 8
	liveWrites     = 4
	liveStructural = 0
)

func (w *liveDelta) requests(phase string, n int) []*request {
	return genRequests(w.seed, "live-"+phase, n, func(r *rand.Rand, i int) *request {
		inst := dealt(w.seed, "live-instance-"+phase, i, len(w.insts))
		li := w.insts[inst]
		if slot := dealt(w.seed, "live-mix-"+phase, i, liveBlock); slot < liveWrites {
			return &request{path: "/instances/" + li.id + "/delta", write: true, inst: inst, deltas: li.deltaBatch(r, slot == liveStructural)}
		}
		k := dealt(w.seed, "live-query-"+phase, i, len(li.queries))
		return &request{path: "/instances/" + li.id + "/solve", inst: inst, query: k, body: w.reads[inst][k]}
	})
}

// check replays each instance's acknowledged delta stream on a local
// copy and compares every read with a from-scratch compile of the
// snapshot at the version the server answered from.
func (w *liveDelta) check(r *report, outs []outcome, s *sender) {
	var writes []outcome
	type key struct {
		inst    int
		version uint64
		query   int
	}
	need := map[key][]*outcome{}
	for i := range outs {
		o := &outs[i]
		if o.req.write {
			writes = append(writes, *o)
			continue
		}
		if !r.tally(o) {
			continue
		}
		k := key{o.req.inst, o.version, o.req.query}
		need[k] = append(need[k], o)
	}
	first := map[int]uint64{}
	for i := range w.insts {
		first[i] = 1
	}
	r.checkWrites(writes, s.acks, first)

	// Snapshots of every version a read needs, per instance.
	snaps := make([]map[uint64]*graph.ProbGraph, len(w.insts))
	for i, li := range w.insts {
		want := map[uint64]bool{}
		for k := range need {
			if k.inst == i {
				want[k.version] = true
			}
		}
		in, err := instance.New(li.id, li.h)
		if err != nil {
			panic(err)
		}
		snaps[i] = map[uint64]*graph.ProbGraph{}
		if want[1] {
			snaps[i][1] = in.Snapshot().H
		}
		for _, a := range s.acks[i] {
			res, err := in.Apply(-1, toDeltas(a.ops))
			if err != nil {
				r.wrong = append(r.wrong, fmt.Sprintf("instance %s: replaying version %d: %v", li.id, a.version, err))
				break
			}
			if want[res.New.Version] {
				snaps[i][res.New.Version] = res.New.H
			}
		}
	}
	keys := make([]key, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	var mu sync.Mutex
	parallel(len(keys), conns, func(j int) {
		k := keys[j]
		h := snaps[k.inst][k.version]
		var want answer
		var err error
		if h == nil {
			err = fmt.Errorf("answered from version %d, which no acknowledged write produced", k.version)
		} else {
			var cp *core.CompiledPlan
			if cp, err = core.Compile(w.insts[k.inst].queries[k.query], h, nil); err == nil {
				var res *core.Result
				if res, err = cp.EvaluateOpts(h.Probs(), optsFast); err == nil {
					want = answerOf(res)
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for _, o := range need[k] {
			if err != nil {
				r.wrongf(o, "%v", err)
				continue
			}
			var sr serve.SolveResponse
			if derr := json.Unmarshal(o.body, &sr); derr != nil {
				r.wrongf(o, "decode: %v", derr)
				continue
			}
			if cerr := checkAnswer(&sr, want); cerr != nil {
				r.wrongf(o, "version %d query %d: %v", k.version, k.query, cerr)
				continue
			}
			r.census.add(sr.Prob, sr.ProbFloat)
		}
	})
}

// writeProbe is the write phase of the workloads without writes of
// their own: delta batches on one live instance like live-delta's, sent
// one at a time before the read phases, so the write path's CPU time is
// measured on every workload while the read phases stay untouched.
type writeProbe struct {
	inst  *liveInstance
	reads [][]byte
}

// probePerSecond is the number of probe writes per measured second.
const probePerSecond = 20

func probeCount(dur time.Duration) int { return int(math.Round(probePerSecond * dur.Seconds())) }

// newWriteProbe builds the probe's instance. It is the same on every
// seed, so that the write path's cost does not hinge on what the seed
// drew; the seed draws the delta stream.
func newWriteProbe() *writeProbe {
	li := drawLiveInstance(subRand(0, "probe-instance", 0), "perfbench-probe", false)
	return &writeProbe{inst: li, reads: li.solveBodies()}
}

// start creates the probe's instance behind s and solves its tracked
// queries once, so that its writes migrate their plans, as live-delta's
// do.
func (p *writeProbe) start(s *sender) error {
	if err := createInstances(s, []*liveInstance{p.inst}); err != nil {
		return err
	}
	for k, body := range p.reads {
		var o outcome
		s.send(&request{path: "/instances/" + p.inst.id + "/solve", body: body}, &o)
		if !o.ok() {
			return fmt.Errorf("probe query %d: status %d %v %s", k, o.status, o.err, o.body)
		}
	}
	return nil
}

func (p *writeProbe) requests(seed int64, n int) []*request {
	return genRequests(seed, "probe", n, func(r *rand.Rand, i int) *request {
		return &request{path: "/instances/" + p.inst.id + "/delta", write: true, deltas: p.inst.deltaBatch(r, dealt(seed, "probe-mix", i, 4) == 0)}
	})
}
