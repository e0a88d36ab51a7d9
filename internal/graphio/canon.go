package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"strings"

	"phom/internal/graph"
)

// This file defines a canonical serialization of graphs and solver jobs,
// used by package engine to key its memoization cache and to deduplicate
// identical in-flight jobs. Canonical means insertion-order independent:
// two graphs with the same vertex count and the same edge set serialize
// identically no matter in which order the edges were added, and two
// probabilistic graphs additionally need identical (normalized) edge
// probabilities. It is NOT an isomorphism canonical form — vertex
// numbering matters, exactly as it does for the solver itself.

// canonEdgeLine appends the canonical line of an edge — "from>to:"label""
// — to b. Labels are quoted so that arbitrary label tokens cannot
// collide with the serialization syntax. Built with strconv rather than
// fmt: canonicalization runs on every engine submission, so it is part
// of the serving hot path.
func canonEdgeLine(b []byte, e graph.Edge) []byte {
	b = strconv.AppendInt(b, int64(e.From), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(e.To), 10)
	b = append(b, ':')
	return strconv.AppendQuote(b, string(e.Label))
}

// CanonicalGraph returns the canonical serialization of g.
func CanonicalGraph(g *graph.Graph) string {
	lines := make([]string, 0, g.NumEdges())
	for _, e := range g.Edges() {
		lines = append(lines, string(canonEdgeLine(nil, e)))
	}
	sort.Strings(lines)
	return fmt.Sprintf("g;n=%d;%s", g.NumVertices(), strings.Join(lines, ";"))
}

// CanonicalProbGraph returns the canonical serialization of p. Edge
// probabilities are rendered with RatString, which is unique per rational
// (big.Rat normalizes), so "0.5" and "1/2" canonicalize identically.
func CanonicalProbGraph(p *graph.ProbGraph) string {
	lines := make([]string, 0, p.G.NumEdges())
	for i, e := range p.G.Edges() {
		b := canonEdgeLine(nil, e)
		b = append(b, '=')
		b = append(b, p.Prob(i).RatString()...)
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	return fmt.Sprintf("pg;n=%d;%s", p.G.NumVertices(), strings.Join(lines, ";"))
}

// JobKey hashes a solver job — the canonical serializations of its query
// disjuncts, the canonical serialization of its instance, and an opaque
// options fingerprint — into a fixed-size hexadecimal key. Every section
// is length-prefixed, so distinct jobs cannot collide by concatenation
// tricks. Callers should sort queryCanon first if they want union
// disjunct order not to matter (Pr(G₁ ∨ G₂) = Pr(G₂ ∨ G₁)).
func JobKey(queryCanon []string, instanceCanon, optsFingerprint string) string {
	h := sha256.New()
	for _, q := range queryCanon {
		fmt.Fprintf(h, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(h, "i %d\n%s\n", len(instanceCanon), instanceCanon)
	fmt.Fprintf(h, "o %d\n%s\n", len(optsFingerprint), optsFingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// StructKey hashes the structure of a solver job: like JobKey, but the
// instance section is the probability-stripped CanonicalGraph of the
// instance's underlying graph, so jobs that differ only in edge
// probabilities share a key. It is the string-based reference form of
// the structure key; package engine derives its cache keys with the
// one-pass JobKeys below instead, which hashes a different byte stream
// — the two schemes define the same equivalence on jobs but produce
// different key values, so a single cache must use one consistently. A
// leading domain tag keeps StructKey and JobKey values disjoint even
// for identical sections.
func StructKey(queryCanon []string, instanceStructCanon, optsFingerprint string) string {
	h := sha256.New()
	fmt.Fprintf(h, "struct\n")
	for _, q := range queryCanon {
		fmt.Fprintf(h, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(h, "i %d\n%s\n", len(instanceStructCanon), instanceStructCanon)
	fmt.Fprintf(h, "o %d\n%s\n", len(optsFingerprint), optsFingerprint)
	return hex.EncodeToString(h.Sum(nil))
}

// The structure byte stream — "struct\n", the query sections, the
// instance header, one canonical edge line per edge, the options
// section — is written by exactly one set of helpers below, shared by
// JobKeys and StructKeyJob. Plan-cache correctness depends on the two
// producing identical structure keys (compiled plans are stamped with
// StructKeyJob, the engine keys lookups with JobKeys), so the stream
// must have a single definition; TestStructKeyJobMatchesJobKeys pins
// the equality end to end.

// writeJobSections writes the query sections and the instance header
// shared by the job and structure streams.
func writeJobSections(w io.Writer, queryCanon []string, numVertices int) {
	for _, q := range queryCanon {
		fmt.Fprintf(w, "q %d\n%s\n", len(q), q)
	}
	fmt.Fprintf(w, "i n=%d\n", numVertices)
}

// writeOptsSection writes the options fingerprint section closing both
// streams.
func writeOptsSection(w io.Writer, optsFingerprint string) {
	fmt.Fprintf(w, "o %d\n%s\n", len(optsFingerprint), optsFingerprint)
}

// JobKeys computes JobKey and StructKey for an instance in one pass:
// the instance's edges are visited once in canonical edge order
// (numeric, no string sort) and streamed into both hashes, instead of
// materializing the CanonicalProbGraph / CanonicalGraph strings and
// hashing them separately. Equal inputs up to edge insertion order
// yield equal keys, like the string-based forms; the key VALUES differ
// from JobKey/StructKey over Canonical* strings (different byte
// streams), so a cache must consistently use one scheme. Package engine
// uses this one — key derivation runs on every submission, and the
// plan-hit fast path should not spend its win on hashing. The canonical
// edge order is returned so callers can reuse it (probability
// transport) without re-sorting.
//
// The two keys take separate options fingerprints: the job key hashes
// the full result-affecting fingerprint, the structure key hashes the
// compile-affecting subset (core.Options.StructFingerprint) — which is
// how jobs differing only in evaluation policy (precision, tolerance)
// share one cached plan while keeping distinct result-cache entries.
func JobKeys(queryCanon []string, p *graph.ProbGraph, optsFingerprint, structOptsFingerprint string) (jobKey, structKey string, order []int) {
	hj, hs := sha256.New(), sha256.New()
	fmt.Fprintf(hs, "struct\n")
	both := io.MultiWriter(hj, hs)
	writeJobSections(both, queryCanon, p.G.NumVertices())
	order = CanonicalEdgeOrder(p.G)
	var buf []byte
	for _, ei := range order {
		// Lines self-delimit: labels are quoted, so '\n' cannot occur
		// unescaped inside one.
		buf = canonEdgeLine(buf[:0], p.G.Edge(ei))
		buf = append(buf, '\n')
		hs.Write(buf)
		buf = buf[:len(buf)-1]
		buf = append(buf, '=')
		buf = appendRat(buf, p.Prob(ei))
		buf = append(buf, '\n')
		hj.Write(buf)
	}
	writeOptsSection(hj, optsFingerprint)
	writeOptsSection(hs, structOptsFingerprint)
	return hex.EncodeToString(hj.Sum(nil)), hex.EncodeToString(hs.Sum(nil)), order
}

// StructKeyJob computes the structure key and canonical edge order of
// a job directly from the instance's underlying graph, writing the
// exact byte stream that JobKeys feeds its structure hash — the two
// functions return identical structKey values for the same job. It
// exists for callers that have no probability assignment at hand:
// package core stamps every compiled plan with its structure key so
// plans serialize self-describing (the engine's snapshot restore keys
// them without re-deriving anything).
func StructKeyJob(queryCanon []string, g *graph.Graph, optsFingerprint string) (structKey string, order []int) {
	hs := sha256.New()
	fmt.Fprintf(hs, "struct\n")
	writeJobSections(hs, queryCanon, g.NumVertices())
	order = CanonicalEdgeOrder(g)
	var buf []byte
	for _, ei := range order {
		buf = canonEdgeLine(buf[:0], g.Edge(ei))
		buf = append(buf, '\n')
		hs.Write(buf)
	}
	writeOptsSection(hs, optsFingerprint)
	return hex.EncodeToString(hs.Sum(nil)), order
}

// BatchJobKeys computes JobKeys for a batch of same-structure lanes in
// one pass: K instances sharing one underlying graph get K job keys,
// one structure key and one canonical edge order, byte-identical to K
// independent JobKeys calls. The shared work — canonical edge ordering,
// edge-line rendering, the query/instance header hash — is done once;
// per lane only the probability suffixes and the options section are
// hashed, with the header's sha256 state cloned via its binary
// marshaling instead of re-hashed. This is the keying half of the
// engine's batched reweight path: deriving K memo-cache keys must not
// cost K full canonicalizations, or batching's win dies in the hasher.
//
// Lanes whose instance does not share instances[0]'s underlying graph
// value are keyed with a full per-lane JobKeys pass — correct, just not
// amortized. Callers that group by graph identity (package engine) never
// hit that path.
func BatchJobKeys(queryCanon []string, instances []*graph.ProbGraph, optsFingerprint, structOptsFingerprint string) (jobKeys []string, structKey string, order []int) {
	if len(instances) == 0 {
		return nil, "", nil
	}
	g := instances[0].G
	hs, hp := sha256.New(), sha256.New()
	fmt.Fprintf(hs, "struct\n")
	var prefix bytes.Buffer
	writeJobSections(io.MultiWriter(hp, hs, &prefix), queryCanon, g.NumVertices())
	order = CanonicalEdgeOrder(g)
	// Render every canonical edge line once, ending in the '=' that the
	// per-lane probability suffix continues.
	lines := make([][]byte, len(order))
	for i, ei := range order {
		b := canonEdgeLine(nil, g.Edge(ei))
		hs.Write(append(b, '\n'))
		lines[i] = append(b[:len(b):len(b)], '=')
	}
	writeOptsSection(hs, structOptsFingerprint)
	structKey = hex.EncodeToString(hs.Sum(nil))

	snap, snapErr := hp.(encoding.BinaryMarshaler).MarshalBinary()
	jobKeys = make([]string, len(instances))
	var buf []byte
	for k, inst := range instances {
		if inst.G != g {
			jobKeys[k], _, _ = JobKeys(queryCanon, inst, optsFingerprint, structOptsFingerprint)
			continue
		}
		hj := sha256.New()
		if snapErr == nil && hj.(encoding.BinaryUnmarshaler).UnmarshalBinary(snap) == nil {
			// header state restored without re-hashing
		} else {
			hj = sha256.New()
			hj.Write(prefix.Bytes())
		}
		// The whole probability suffix is rendered into one reused buffer
		// and hashed with a single Write: per-edge hash writes and
		// big.Int decimal rendering are exactly the per-lane costs that
		// must stay negligible for batched keying to beat K full passes.
		buf = buf[:0]
		for i, ei := range order {
			buf = append(buf, lines[i]...)
			buf = appendRat(buf, inst.Prob(ei))
			buf = append(buf, '\n')
		}
		hj.Write(buf)
		writeOptsSection(hj, optsFingerprint)
		jobKeys[k] = hex.EncodeToString(hj.Sum(nil))
	}
	return jobKeys, structKey, order
}

// appendRat appends r in the canonical "num/denom" form, with a fast
// path for machine-word-sized numerators and denominators (the shape of
// real probability traffic) that skips big.Int's slower decimal
// rendering. Byte-identical to Num().Append + "/" + Denom().Append.
func appendRat(buf []byte, r *big.Rat) []byte {
	if n, d := r.Num(), r.Denom(); n.IsInt64() && d.IsInt64() {
		buf = strconv.AppendInt(buf, n.Int64(), 10)
		buf = append(buf, '/')
		return strconv.AppendInt(buf, d.Int64(), 10)
	}
	buf = r.Num().Append(buf, 10)
	buf = append(buf, '/')
	return r.Denom().Append(buf, 10)
}

// CanonicalEdgeOrder returns the edge indices of g sorted by endpoint
// pair (from, to) — a deterministic, insertion-order-independent order.
// The ordered pair identifies an edge uniquely (graphs have no
// multi-edges), so two graphs with equal CanonicalGraph serializations
// have pointwise-equal edges (including labels) under their respective
// canonical edge orders. This lets a probability vector indexed by one
// edge numbering be transported onto the other, which is how the engine
// evaluates a cached plan against an instance whose edges were inserted
// in a different order. Sorting integers rather than canonical strings
// keeps the transport cheap: it runs on every plan-cache hit.
//
// Vertices are visited in order and only each vertex's out-edges are
// sorted by head, so the cost is linear for bounded out-degree.
func CanonicalEdgeOrder(g *graph.Graph) []int {
	order := make([]int, 0, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		start := len(order)
		order = append(order, g.OutEdges(graph.Vertex(v))...)
		out := order[start:]
		if len(out) > 1 {
			sort.Slice(out, func(a, b int) bool { return g.Edge(out[a]).To < g.Edge(out[b]).To })
		}
	}
	return order
}
