package main

// trace.go: the traced run. It replays a sample of a workload over HTTP
// with request ids, reading the servers' elapsed_us and /healthz counter
// deltas, then replays the same inputs in this process through the
// layers' public entry points in the order the server calls them, with
// one span per call. Where a composite call hides a layer
// (core.CompileContext hides lineage, plan build and lowering), the
// replay also calls that layer's own entry point on the same input, so
// the composite's self time is its span minus those calls. Spans stay
// in memory and are written out when the run ends.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"phom/internal/core"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/instance"
	"phom/internal/lineage"
	"phom/internal/plan"
	"phom/internal/serve"
)

// span is one timed call into a layer.
type span struct {
	Name   string `json:"name"`
	Req    string `json:"req"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans when on; off, it only calls the functions, which
// gives the untraced replay the tracing overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

// do runs f inside a span named name, child of parent, and returns the
// span's index (-1 when off).
func (tr *tracer) do(name, req string, parent int, f func()) int {
	if !tr.on {
		f()
		return -1
	}
	i := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(tr.t0))})
	f()
	tr.spans[i].End = int64(time.Since(tr.t0))
	return i
}

func (tr *tracer) us(i int) float64 {
	if i < 0 {
		return 0
	}
	return float64(tr.spans[i].End-tr.spans[i].Start) / 1e3
}

// layerStats collects per-layer samples during the in-process replay.
type layerStats map[string][]float64

func (ls layerStats) add(name string, v float64) { ls[name] = append(ls[name], v) }

func (ls layerStats) median(name string) float64 { return median(ls[name]) }

func (ls layerStats) sum(name string) float64 {
	t := 0.0
	for _, v := range ls[name] {
		t += v
	}
	return t
}

// replayer mirrors the server's calls for one workload in process.
type replayer struct {
	tr    *tracer
	ls    layerStats
	plans map[string]*core.CompiledPlan // the plan cache, by structure key
	// live-delta state: local instances and their tracked plans.
	insts []*instance.Instance
	live  [][]*core.CompiledPlan
	// inproc is, per request id, the in-process time of the calls the
	// engine makes for that job (compile and evaluate), in µs.
	inproc map[string]float64
	// scale marks the compiles of the scaling probe, the only ones that
	// feed the per-edge metrics.
	scale bool
}

func newReplayer(on bool) *replayer {
	return &replayer{
		tr:     &tracer{on: on, t0: time.Now()},
		ls:     layerStats{},
		plans:  map[string]*core.CompiledPlan{},
		inproc: map[string]float64{},
	}
}

// compile is core.CompileContext with its hidden layers called on their
// own: lineage construction, the cell's plan build and lowering.
func (rp *replayer) compile(req string, parent int, q *graph.Graph, h *graph.ProbGraph, opts *core.Options) *core.CompiledPlan {
	var cp *core.CompiledPlan
	var err error
	ci := rp.tr.do("core.compile", req, parent, func() { cp, err = core.CompileContext(context.Background(), q, h, opts) })
	if err != nil {
		panic(fmt.Sprintf("perfbench: in-process compile: %v", err))
	}
	n := float64(h.G.NumEdges())
	compileUS := rp.tr.us(ci)
	rp.ls.add("core.compile_us", compileUS)
	rp.inproc[req] += compileUS
	m, ok := cp.Method()
	if !ok {
		return cp // an opaque plan: no lineage, plan tree or program
	}
	comps, _ := h.ComponentsWithEdges()
	var build func() (plan.Plan, error)
	var lin func(comp *graph.ProbGraph) (int, error)
	switch m {
	case core.MethodXProperty2WP:
		lin = func(comp *graph.ProbGraph) (int, error) {
			l, err := lineage.ConnectedOn2WP(q, comp)
			if err != nil {
				return 0, err
			}
			return len(l.DNF.Clauses), nil
		}
		build = func() (plan.Plan, error) { return plan.ConnectedOn2WP(q, h) }
	case core.MethodBetaAcyclicDWT:
		lin = func(comp *graph.ProbGraph) (int, error) {
			l, err := lineage.Path1WPOnDWT(q, comp)
			if err != nil {
				return 0, err
			}
			return len(l.DNF.Clauses), nil
		}
		build = func() (plan.Plan, error) { return plan.Path1WPOnDWT(q, h) }
	case core.MethodGradedDWT:
		levels, _ := q.DifferenceOfLevels()
		build = func() (plan.Plan, error) { return plan.DirectedPathOnDWTs(h, levels) }
	case core.MethodAutomatonPT:
		build = func() (plan.Plan, error) { return plan.DirectedPathOnPolytrees(h, q.Height()) }
	default:
		return cp
	}
	linUS := 0.0
	if lin != nil {
		clauses := 0
		li := rp.tr.do("lineage.build", req, ci, func() {
			for _, comp := range comps {
				c, err := lin(comp)
				if err != nil {
					panic(fmt.Sprintf("perfbench: in-process lineage: %v", err))
				}
				clauses += c
			}
		})
		linUS = rp.tr.us(li)
		rp.ls.add("lineage.build_us", linUS)
		rp.ls.add("lineage.clauses", float64(clauses))
		if rp.scale {
			rp.ls.add(sizeKey("lineage.us_per_edge", h), linUS/n)
		}
	}
	var p plan.Plan
	bi := rp.tr.do("plan.build", req, ci, func() { p, err = build() })
	if err != nil {
		panic(fmt.Sprintf("perfbench: in-process plan build: %v", err))
	}
	rp.ls.add("plan.build_us", rp.tr.us(bi)-linUS)
	li := rp.tr.do("plan.lower", req, ci, func() { _, err = plan.Lower(p, h.G.NumEdges()) })
	if err != nil {
		panic(fmt.Sprintf("perfbench: in-process lowering: %v", err))
	}
	rp.ls.add("plan.lower_us", rp.tr.us(li))
	rp.ls.add("plan.ops", float64(cp.Program().NumOps()))
	if rp.scale {
		rp.ls.add(sizeKey("core.compile_us_per_edge", h), compileUS/n)
	}
	return cp
}

// sizeKey files a per-edge sample under its instance size.
func sizeKey(prefix string, h *graph.ProbGraph) string {
	return fmt.Sprintf("%s.n%d", prefix, h.G.NumEdges())
}

// evaluate is CompiledPlan.EvaluateOptsContext, with the plan's own
// kernel (Exec or ExecFloat) also called on its own.
func (rp *replayer) evaluate(req string, parent int, cp *core.CompiledPlan, probs []*big.Rat, opts *core.Options) *core.Result {
	var res *core.Result
	var err error
	ei := rp.tr.do("core.evaluate", req, parent, func() { res, err = cp.EvaluateOptsContext(context.Background(), probs, opts) })
	if err != nil {
		panic(fmt.Sprintf("perfbench: in-process evaluate: %v", err))
	}
	us := rp.tr.us(ei)
	rp.ls.add("core.evaluate_us", us)
	rp.inproc[req] += us
	if cp.Opaque() {
		rp.ls.add("approx.evaluate_us", us)
		rp.ls.add("approx.samples", float64(res.ApproxSamples))
		if res.ApproxSamples > 0 {
			rp.ls.add("approx.ns_per_sample", us*1e3/float64(res.ApproxSamples))
		}
		return res
	}
	prog := cp.Program()
	if opts.EffectivePrecision() == core.PrecisionExact {
		xi := rp.tr.do("plan.exec_exact", req, ei, func() { _, err = prog.Exec(probs) })
		rp.ls.add("plan.exec_exact_us", rp.tr.us(xi))
	} else {
		fi := rp.tr.do("plan.exec_float", req, ei, func() { _, err = prog.ExecFloat(probs) })
		rp.ls.add("plan.exec_float_us", rp.tr.us(fi))
		rp.ls.add("plan.exec_ns_per_op", rp.tr.us(fi)*1e3/float64(max(1, prog.NumOps())))
	}
	if err != nil {
		panic(fmt.Sprintf("perfbench: in-process exec: %v", err))
	}
	return res
}

// front is the wire decode of a job's query and, when iraw is set, its
// instance.
func (rp *replayer) front(req string, parent int, qraw, iraw json.RawMessage) (*graph.Graph, *graph.ProbGraph) {
	var q, h *graph.ProbGraph
	var err error
	di := rp.tr.do("graphio.decode", req, parent, func() {
		if q, err = graphio.UnmarshalProbGraphJSON(qraw); err == nil && iraw != nil {
			h, err = graphio.UnmarshalProbGraphJSON(iraw)
		}
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: in-process decode: %v", err))
	}
	rp.ls.add("graphio.decode_us", rp.tr.us(di))
	return q.G, h
}

// route and keys are the routing (TightestClass on query and instance,
// as the guard table and PredictInput do) and keying of one job.
func (rp *replayer) route(req string, parent int, q *graph.Graph, h *graph.ProbGraph) {
	ri := rp.tr.do("graph.route", req, parent, func() { _, _ = q.TightestClass(), h.G.TightestClass() })
	rp.ls.add("graph.route_us", rp.tr.us(ri))
}

func (rp *replayer) keys(req string, parent int, q *graph.Graph, hs []*graph.ProbGraph, opts *core.Options) string {
	var sk string
	ki := rp.tr.do("graphio.keys", req, parent, func() {
		canon := []string{graphio.CanonicalGraph(q)}
		if len(hs) == 1 {
			_, sk, _ = graphio.JobKeys(canon, hs[0], opts.Fingerprint(), opts.StructFingerprint())
		} else {
			_, sk, _ = graphio.BatchJobKeys(canon, hs, opts.Fingerprint(), opts.StructFingerprint())
		}
	})
	rp.ls.add("graphio.keys_us", rp.tr.us(ki))
	return sk
}

func optsOf(so *serve.SolveOptions) *core.Options {
	o := &core.Options{}
	if so != nil {
		p, err := core.ParsePrecision(so.Precision)
		if err != nil {
			panic(err)
		}
		o.Precision, o.Seed = p, so.Seed
	}
	return o
}

// withOverrides is the instance with a probs override map applied, as
// the server's /reweight does it.
func withOverrides(base *graph.ProbGraph, m map[string]string) *graph.ProbGraph {
	h := base.CloneProbs()
	for k, v := range m {
		from, to, _ := graphio.ParseEdgeKey(k)
		p, err := graphio.ParseRat(v)
		if err != nil {
			panic(err)
		}
		if err := h.SetEdgeProb(graph.Vertex(from), graph.Vertex(to), p); err != nil {
			panic(err)
		}
	}
	return h
}

// stateless replays one /solve or /reweight request.
func (rp *replayer) stateless(o *outcome) {
	id := o.id
	root := rp.tr.do("request", id, -1, func() {})
	var wr serve.ReweightRequest
	if err := json.Unmarshal(o.req.body, &wr); err != nil {
		panic(err)
	}
	opts := optsOf(wr.Options)
	q, base := rp.front(id, root, wr.Query, wr.Instance)
	hs := []*graph.ProbGraph{base}
	switch {
	case wr.ProbsBatch != nil:
		hs = hs[:0]
		for _, m := range wr.ProbsBatch {
			hs = append(hs, withOverrides(base, m))
		}
	case wr.Probs != nil:
		hs[0] = withOverrides(base, wr.Probs)
	}
	rp.route(id, root, q, hs[0])
	sk := rp.keys(id, root, q, hs, opts)
	cp := rp.plans[sk]
	if cp == nil {
		cp = rp.compile(id, root, q, hs[0], opts)
		rp.plans[sk] = cp
	}
	for _, h := range hs {
		rp.evaluate(id, root, cp, h.Probs(), opts)
	}
}

// warmStateless compiles the structures the server's warm-up compiled.
func (rp *replayer) warmStateless(sts []*structure, opts *core.Options) {
	for i, st := range sts {
		id := fmt.Sprintf("setup-%d", i)
		root := rp.tr.do("setup", id, -1, func() {})
		q, h := rp.front(id, root, st.qry, st.inst)
		rp.route(id, root, q, h)
		sk := rp.keys(id, root, q, []*graph.ProbGraph{h}, opts)
		cp := rp.compile(id, root, q, h, opts)
		rp.plans[sk] = cp
		rp.evaluate(id, root, cp, h.Probs(), opts)
	}
}

// warmLive creates the local instances and compiles their tracked plans.
func (rp *replayer) warmLive(w *liveDelta) {
	for i, li := range w.insts {
		in, err := instance.New(li.id, li.h)
		if err != nil {
			panic(err)
		}
		rp.insts = append(rp.insts, in)
		var cps []*core.CompiledPlan
		for k, q := range li.queries {
			id := fmt.Sprintf("setup-%d-%d", i, k)
			root := rp.tr.do("setup", id, -1, func() {})
			cps = append(cps, rp.compile(id, root, q, in.Snapshot().H, optsFast))
		}
		rp.live = append(rp.live, cps)
	}
}

// liveRequest replays one instance read or delta batch.
func (rp *replayer) liveRequest(w *liveDelta, o *outcome) {
	id := o.id
	root := rp.tr.do("request", id, -1, func() {})
	in := rp.insts[o.req.inst]
	if o.req.write {
		old := in.Snapshot()
		var res *instance.ApplyResult
		var err error
		ai := rp.tr.do("instance.apply", id, root, func() { res, err = in.Apply(-1, toDeltas(o.req.deltas)) })
		if err != nil {
			panic(fmt.Sprintf("perfbench: in-process apply: %v", err))
		}
		rp.ls.add("instance.apply_us", rp.tr.us(ai))
		rp.ls.add("instance.deltas", float64(len(o.req.deltas)))
		if !res.Structural {
			return
		}
		for k, q := range w.insts[o.req.inst].queries {
			var cp *core.CompiledPlan
			pi := rp.tr.do("core.patch", id, root, func() {
				cp, _, err = core.PatchCompile(q, rp.live[o.req.inst][k], old.H.G, res.New.H, optsFast)
			})
			if err != nil {
				panic(fmt.Sprintf("perfbench: in-process patch: %v", err))
			}
			rp.ls.add("core.patch_us", rp.tr.us(pi))
			rp.live[o.req.inst][k] = cp
		}
		return
	}
	var sr serve.SolveRequest
	if err := json.Unmarshal(o.req.body, &sr); err != nil {
		panic(err)
	}
	q, _ := rp.front(id, root, sr.Query, nil)
	h := in.Snapshot().H
	rp.route(id, root, q, h)
	rp.keys(id, root, q, []*graph.ProbGraph{h}, optsFast)
	rp.evaluate(id, root, rp.live[o.req.inst][o.req.query], h.Probs(), optsFast)
}

// replay runs the in-process replay of outs for mix m.
func replay(m mix, outs []outcome, on bool) (*replayer, time.Duration) {
	rp := newReplayer(on)
	start := time.Now()
	switch w := m.(type) {
	case *reweightWarm:
		rp.warmStateless(w.sts, optsFast)
	case *approxHard:
		rp.warmStateless(w.sts, approxOpts(1))
	case *liveDelta:
		rp.warmLive(w)
	}
	for i := range outs {
		if w, ok := m.(*liveDelta); ok {
			rp.liveRequest(w, &outs[i])
		} else {
			rp.stateless(&outs[i])
		}
	}
	return rp, time.Since(start)
}

// traceSample bounds the requests the traced run replays in process.
const traceSample = 240

// scalingProbe compiles ⊔2WP instances of 256 and 2048 edges with
// 3-edge needles, drawn from the seed, for the per-edge lineage and
// compile metrics: the super-linear cliff of the X-property lineage
// shows as their ratio. compile-cold sends no 2048-edge ⊔2WP (one
// compile takes seconds), so the probe runs in process only.
func (rp *replayer) scalingProbe(seed int64) {
	rp.scale = true
	defer func() { rp.scale = false }()
	for _, edges := range []int{256, 2048} {
		for k := 0; k < 3; k++ {
			sh := coldShapeFor(0, edges)
			sh.length = 3
			st, _ := drawStructure(subRand(seed, "scaling-probe", edges*10+k), sh, optsFast)
			id := fmt.Sprintf("scale-%d-%d", edges, k)
			rp.compile(id, rp.tr.do("scale", id, -1, func() {}), st.q, st.h, optsFast)
		}
	}
}

// runTraced is the per-layer run.
func runTraced(w workload, seed int64, dur time.Duration, bin string) (result, error) {
	m := w.make(seed)
	m.prepare()
	sched := poissonSchedule(seed, w.rate, dur/2)
	reqs := m.requests("open", len(sched))
	t, s, _, _, err := setUp(w, m, bin, 1, 1, 0, nil)
	if err != nil {
		return result{}, err
	}
	defer t.stop()
	defer s.close()
	h0, err := t.health()
	if err != nil {
		return result{}, err
	}
	outs := s.openLoop(reqs, sched)
	h1, err := t.health()
	if err != nil {
		return result{}, err
	}
	hd := h1.delta(h0)
	hop := 0.0
	if t.gate != nil {
		if hop, err = gateHop(t, reqs); err != nil {
			return result{}, err
		}
	}

	rep := &report{}
	m.check(rep, outs, s)
	if err := rep.err(); err != nil {
		return result{}, err
	}
	if rep.failed > 0 {
		return result{}, fmt.Errorf("%d of %d traced requests failed: %v", rep.failed, rep.attempted, rep.failures)
	}

	// The untraced replay first, so both see the same warm caches of
	// this process.
	sample := outs[:min(len(outs), traceSample)]
	_, plain := replay(m, sample, false)
	rp, traced := replay(m, sample, true)
	if _, ok := m.(*compileCold); ok {
		rp.scalingProbe(seed)
	}
	ls := rp.ls

	var late, overhead, elapsed, wait, respBytes, reqBytes, encode []float64
	for i := range outs {
		late = append(late, float64(outs[i].late)/float64(time.Millisecond))
	}
	for i := range sample {
		o := &sample[i]
		reqBytes = append(reqBytes, float64(len(o.req.body)))
		if o.req.write {
			continue
		}
		respBytes = append(respBytes, float64(len(o.body)))
		var el int64
		var v any
		if len(o.req.want) > 1 {
			var br serve.BatchResponse
			if err := json.Unmarshal(o.body, &br); err != nil {
				return result{}, err
			}
			el, v = br.ElapsedUS, br
		} else {
			var sr serve.SolveResponse
			if err := json.Unmarshal(o.body, &sr); err != nil {
				return result{}, err
			}
			el, v = sr.ElapsedUS, sr
			if sr.CacheHit {
				rp.inproc[o.id] = 0
			}
			overhead = append(overhead, float64(o.rtt)/1e3-float64(el))
		}
		start := time.Now()
		if _, err := json.Marshal(v); err != nil {
			return result{}, err
		}
		encode = append(encode, float64(time.Since(start))/1e3)
		elapsed = append(elapsed, float64(el))
		wait = append(wait, float64(el)-rp.inproc[o.id])
	}
	sort.Float64s(late)
	e := hd.eng
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	perRun := 0.0
	if e.BatchRuns > 0 {
		perRun = float64(e.BatchLanes) / float64(e.BatchRuns)
	}
	vals := map[string]float64{
		"graphio.decode_us":              ls.median("graphio.decode_us"),
		"graphio.keys_us":                ls.median("graphio.keys_us"),
		"graphio.request_bytes":          median(reqBytes),
		"graph.route_us":                 ls.median("graph.route_us"),
		"lineage.build_us":               ls.median("lineage.build_us"),
		"lineage.clauses":                ls.median("lineage.clauses"),
		"lineage.us_per_edge.n256":       ls.median("lineage.us_per_edge.n256"),
		"lineage.us_per_edge.n2048":      ls.median("lineage.us_per_edge.n2048"),
		"plan.build_us":                  ls.median("plan.build_us"),
		"plan.lower_us":                  ls.median("plan.lower_us"),
		"plan.ops":                       ls.median("plan.ops"),
		"plan.exec_exact_us":             ls.median("plan.exec_exact_us"),
		"plan.exec_float_us":             ls.median("plan.exec_float_us"),
		"plan.exec_ns_per_op":            ls.median("plan.exec_ns_per_op"),
		"core.compile_us":                ls.median("core.compile_us"),
		"core.compile_us_per_edge.n256":  ls.median("core.compile_us_per_edge.n256"),
		"core.compile_us_per_edge.n2048": ls.median("core.compile_us_per_edge.n2048"),
		"core.evaluate_us":               ls.median("core.evaluate_us"),
		"core.patch_us":                  ls.median("core.patch_us"),
		"approx.samples":                 ls.median("approx.samples"),
		"approx.evaluate_us":             ls.median("approx.evaluate_us"),
		"approx.ns_per_sample":           ls.median("approx.ns_per_sample"),
		"instance.apply_us":              ls.median("instance.apply_us"),
		"instance.deltas":                ls.sum("instance.deltas"),
		"engine.do_us":                   median(elapsed),
		"engine.wait_us":                 median(wait),
		"engine.plan_hit_ratio":          ratio(e.PlanHits, e.PlanCompiles),
		"engine.result_hit_ratio":        float64(e.CacheHits) / float64(max(1, e.Submitted)),
		"engine.compiles":                float64(e.PlanCompiles),
		"engine.batch_lanes_per_run":     perRun,
		"engine.incremental_ratio":       ratio(e.IncrementalRecompiles, e.FullRecompiles),
		"engine.full_recompiles":         float64(e.FullRecompiles),
		"engine.errors":                  float64(e.Errors),
		"serve.overhead_us":              median(overhead),
		"serve.encode_us":                median(encode),
		"serve.response_bytes":           median(respBytes),
		"gateway.hop_us":                 hop,
		"gateway.shed":                   float64(hd.shed),
		"gateway.retries":                float64(hd.gateRetries),
		"loadgen.late_p99_ms":            percentile(late, 99),
		"trace.overhead_share":           (traced.Seconds() - plain.Seconds()) / plain.Seconds(),
	}
	res := result{Correct: true, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, l := range perLayer {
		v, ok := vals[l.name]
		if !ok {
			return result{}, fmt.Errorf("no value for per-layer metric %s", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}
	if err := writeSpans(bin, w.name, seed, rp.tr.spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// gateHop times the same requests through the gate and directly, after
// one warming pass that puts each answer in the result cache, so both
// sides are cache hits and differ only by the gate's hop.
func gateHop(t *tier, reqs []*request) (float64, error) {
	gate := newSender(t.gate.url, "hop-gate")
	direct := newSender(t.serve.url, "hop-direct")
	defer gate.close()
	defer direct.close()
	var viaGate, viaDirect []float64
	for i, req := range reqs {
		if i >= 100 || req.write {
			break
		}
		var o outcome
		direct.send(req, &o)
		for k := 0; k < 2; k++ {
			var og, od outcome
			if (i+k)%2 == 0 {
				gate.send(req, &og)
				direct.send(req, &od)
			} else {
				direct.send(req, &od)
				gate.send(req, &og)
			}
			if !og.ok() || !od.ok() {
				return 0, fmt.Errorf("gate hop request %d: statuses %d/%d", i, og.status, od.status)
			}
			viaGate = append(viaGate, float64(og.rtt)/1e3)
			viaDirect = append(viaDirect, float64(od.rtt)/1e3)
		}
	}
	return median(viaGate) - median(viaDirect), nil
}

// writeSpans writes the run's spans next to the binaries.
func writeSpans(dir, name string, seed int64, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", strings.ReplaceAll(name, "/", "_"), seed))
	return os.WriteFile(path, b, 0o644)
}
