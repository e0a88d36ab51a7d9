package main

// inputs.go: the seeded workload inputs and their reference answers.
// Everything here runs outside the timed windows. A request carries the
// library's own answer for it, computed in this process from a fresh
// compile, so the checker never has to trust the server.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"strconv"

	"phom/internal/core"
	"phom/internal/gen"
	"phom/internal/graph"
	"phom/internal/graphio"
	"phom/internal/instance"
	"phom/internal/serve"
)

// Answers outside [loAns, hiAns] are degenerate: they cannot tell a
// right evaluator from one that rounds to 0 or 1 (the PASTA redraw).
const (
	loAns = 0.001
	hiAns = 0.999
)

var (
	labeled   = []graph.Label{"R", "S"}
	unlabeled = []graph.Label{graph.Unlabeled}

	optsFast  = &core.Options{Precision: core.PrecisionFast}
	optsExact = &core.Options{Precision: core.PrecisionExact}
)

// answer is the library's answer to one job: the fields the server
// reports, to be matched exactly.
type answer struct {
	prec    string
	rat     string
	float   float64
	lo, hi  float64 // fast: certified enclosure; approx: Hoeffding bounds
	samples int64
	// exact, when set, is the exact value; the served enclosure must
	// contain it (checked on a seeded subset of fast answers).
	exact *big.Rat
}

func answerOf(res *core.Result) answer {
	a := answer{prec: res.Precision.String(), rat: res.Prob.RatString(), samples: res.ApproxSamples}
	a.float, _ = res.Prob.Float64()
	if res.Bounds != nil {
		a.lo, a.hi = res.Bounds.Lo, res.Bounds.Hi
	}
	return a
}

func inRange(p float64) bool { return p >= loAns && p <= hiAns }

// request is one generated HTTP request and what its answer must be.
type request struct {
	path  string
	body  []byte
	write bool
	// want holds the reference answers of a stateless request, one per
	// result (16 for a probs_batch reweight).
	want []answer
	// Live-instance requests are checked after the run, against the
	// replayed delta stream: inst and query name the instance and the
	// tracked query, deltas the batch of a write.
	inst, query int
	deltas      []serve.DeltaOp
	// repeat marks a verbatim repeat of an earlier body.
	repeat bool
}

// structure is one query/instance pair with its in-process plan.
type structure struct {
	q    *graph.Graph
	h    *graph.ProbGraph
	cp   *core.CompiledPlan
	inst json.RawMessage // compact graphio JSON of h
	qry  json.RawMessage // compact graphio JSON of q
	keys []string        // per edge, the "from>to" key of the wire format
}

func compactJSON(b []byte) json.RawMessage {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		panic(err) // graphio output is valid JSON
	}
	return buf.Bytes()
}

func newStructure(q *graph.Graph, h *graph.ProbGraph, cp *core.CompiledPlan) *structure {
	ib, err := graphio.MarshalProbGraphJSON(h)
	if err != nil {
		panic(err)
	}
	qb, err := graphio.MarshalProbGraphJSON(graph.NewProbGraph(q))
	if err != nil {
		panic(err)
	}
	s := &structure{q: q, h: h, cp: cp, inst: compactJSON(ib), qry: compactJSON(qb)}
	for _, e := range h.G.Edges() {
		s.keys = append(s.keys, strconv.Itoa(int(e.From))+">"+strconv.Itoa(int(e.To)))
	}
	return s
}

func randProb(r *rand.Rand) *big.Rat { return big.NewRat(int64(1+r.Intn(15)), 16) }

func randProbs(r *rand.Rand, n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = randProb(r)
	}
	return out
}

func withProbs(g *graph.Graph, probs []*big.Rat) *graph.ProbGraph {
	h := graph.NewProbGraph(g)
	for i, p := range probs {
		if err := h.SetProb(i, p); err != nil {
			panic(err)
		}
	}
	return h
}

// shape is a structure family: the component class, the label set, the
// total edge count, the edge count of one component, and the needle
// length (0 for any of 3–5).
type shape struct {
	base      graph.Class // Class2WP, ClassDWT or ClassPT
	labels    []graph.Label
	edges     int
	compEdges int
	method    core.Method // the tractable route the pair must take
	length    int
}

func (s shape) union(r *rand.Rand) *graph.Graph {
	k := s.edges / s.compEdges
	if k < 1 {
		k = 1
	}
	per := s.edges/k + 1 // a path or tree on per vertices has per-1 edges
	return gen.RandUnion(r, k, func(r *rand.Rand) *graph.Graph {
		return gen.RandInClass(r, s.base, per, s.labels)
	})
}

// needle draws a random-walk needle of length edges (3–5 when length is
// 0) and a k/16 probability
// vector on g until the answer at precision opts lies in [loAns, hiAns]
// and the pair takes route method (core.MethodKarpLuby standing for any
// #P-hard cell). A non-nil fixed keeps the probabilities fixed. It
// returns nil after a bounded number of draws: the caller then changes
// the structure.
func needle(r *rand.Rand, g *graph.Graph, method core.Method, length int, opts *core.Options, fixed []*big.Rat) (*graph.Graph, *core.CompiledPlan, *graph.ProbGraph, *core.Result) {
	for draws := 0; draws < 24; draws++ {
		// A walk that stops short is redrawn at the same length, so every
		// length keeps its share: on wide unlabeled trees only the longest
		// needles have answers below hiAns.
		length := length
		if length == 0 {
			length = 3 + r.Intn(3)
		}
		var q *graph.Graph
		for w := 0; w < 64 && (q == nil || q.NumEdges() != length); w++ {
			q = gen.RandWalkQuery(r, g, length)
		}
		if q == nil || q.NumEdges() != length {
			continue
		}
		probs := fixed
		if probs == nil {
			probs = randProbs(r, g.NumEdges())
		}
		h := withProbs(g, probs)
		cp, err := core.Compile(q, h, nil)
		if err != nil {
			continue
		}
		if m, ok := cp.Method(); ok != (method != core.MethodKarpLuby) || (ok && m != method) {
			continue
		}
		for pi := 0; pi < 4; pi++ {
			if pi > 0 {
				if fixed != nil {
					break
				}
				h = withProbs(g, randProbs(r, g.NumEdges()))
			}
			res, err := cp.EvaluateOpts(h.Probs(), opts)
			if err == nil && inRange(ratFloat(res.Prob)) {
				return q, cp, h, res
			}
		}
	}
	return nil, nil, nil, nil
}

// drawStructure draws a structure of shape s with an in-range needle,
// halving the component size until one is found: a long needle on big
// unlabeled trees matches almost surely, small components keep the
// answer away from 1.
func drawStructure(r *rand.Rand, s shape, opts *core.Options) (*structure, *core.Result) {
	for {
		for try := 0; try < 3; try++ {
			g := s.union(r)
			if q, cp, h, res := needle(r, g, s.method, s.length, opts, nil); q != nil {
				return newStructure(q, h, cp), res
			}
		}
		if s.compEdges <= 8 {
			panic(fmt.Sprintf("perfbench: no in-range needle for %+v", s))
		}
		s.compEdges /= 2
	}
}

// ratFloat is the nearest float64 to x.
func ratFloat(x *big.Rat) float64 { f, _ := x.Float64(); return f }

// reweightProbs draws a probability vector for st whose fast answer is
// in range (redrawn a bounded number of times) and returns it with the
// library's fast answer.
func reweightProbs(r *rand.Rand, st *structure, opts *core.Options) ([]*big.Rat, *core.Result) {
	var probs []*big.Rat
	var res *core.Result
	for try := 0; try < 16; try++ {
		probs = randProbs(r, st.h.G.NumEdges())
		var err error
		if res, err = st.cp.EvaluateOpts(probs, optsFast); err != nil {
			panic(err)
		}
		if inRange(ratFloat(res.Prob)) {
			break
		}
	}
	if opts != optsFast {
		var err error
		if res, err = st.cp.EvaluateOpts(probs, opts); err != nil {
			panic(err)
		}
	}
	return probs, res
}

func (st *structure) probMap(probs []*big.Rat) map[string]string {
	m := make(map[string]string, len(probs))
	for i, p := range probs {
		m[st.keys[i]] = p.RatString()
	}
	return m
}

func (st *structure) solveRequest(prec string, seed uint64) serve.SolveRequest {
	return serve.SolveRequest{Query: st.qry, Instance: st.inst, Options: &serve.SolveOptions{Precision: prec, Seed: seed}}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// evalExact is the exact value of st under probs, for enclosure checks.
func evalExact(st *structure, probs []*big.Rat) *big.Rat {
	res, err := st.cp.EvaluateOpts(probs, optsExact)
	if err != nil {
		panic(err)
	}
	return res.Prob
}

// liveInstance is one named instance of the live-delta workload, as the
// benchmark created it, with the needles it tracks.
type liveInstance struct {
	id      string
	h       *graph.ProbGraph
	queries []*graph.Graph
	qry     []json.RawMessage
	inst    json.RawMessage
	keys    []string
	labels  []graph.Label // edge labels, for remove/re-add pairs
}

// deltaBatch draws one delta batch for li: set_prob drift on 1–3 edges,
// or when structural a remove/re-add pair of one edge (same endpoints
// and label, fresh probability), which changes the structure's edge
// order but not its class. Callers make one batch in four structural.
func (li *liveInstance) deltaBatch(r *rand.Rand, structural bool) []serve.DeltaOp {
	n := len(li.keys)
	if structural {
		e := r.Intn(n)
		return []serve.DeltaOp{
			{Op: "remove_edge", Edge: li.keys[e]},
			{Op: "add_edge", Edge: li.keys[e], Label: string(li.labels[e]), Prob: randProb(r).RatString()},
		}
	}
	k := 1 + r.Intn(3)
	ops := make([]serve.DeltaOp, 0, k)
	for _, e := range r.Perm(n)[:k] {
		ops = append(ops, serve.DeltaOp{Op: "set_prob", Edge: li.keys[e], Prob: randProb(r).RatString()})
	}
	return ops
}

// toDeltas converts wire deltas to the library form, for the replay.
func toDeltas(ops []serve.DeltaOp) []instance.Delta {
	out := make([]instance.Delta, len(ops))
	for i, op := range ops {
		o, err := instance.ParseOp(op.Op)
		if err != nil {
			panic(err)
		}
		from, to, _ := graphio.ParseEdgeKey(op.Edge)
		d := instance.Delta{Op: o, From: graph.Vertex(from), To: graph.Vertex(to), Label: graph.Label(op.Label)}
		if op.Prob != "" {
			d.Prob, _ = graphio.ParseRat(op.Prob)
		}
		out[i] = d
	}
	return out
}

// parallel runs f(i) for i in [0, n) on workers goroutines.
func parallel(n, workers int, f func(i int)) {
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				f(i)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
}

// dealt is slot i of a sequence dealt in blocks of size: each block of
// size consecutive indices holds every slot 0..size-1 once, in an order
// drawn from the seed. A mix dealt this way has the same shares on every
// seed, and its cost does not hinge on what the seed drew.
func dealt(seed int64, tag string, i, size int) int {
	return subRand(seed, tag, i/size).Perm(size)[i%size]
}

// subRand derives the generator of item i of stream tag from the seed,
// so items can be generated in any order and in parallel.
func subRand(seed int64, tag string, i int) *rand.Rand {
	h := int64(1469598103934665603)
	for _, c := range tag {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(seed*1000003 + h + int64(i)*7919))
}
