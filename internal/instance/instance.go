// Package instance implements versioned, mutable probabilistic-graph
// instances: the stateful counterpart of the otherwise immutable jobs
// the solver pipeline consumes.
//
// An Instance wraps a graph.ProbGraph behind a monotonically increasing
// version and accepts typed deltas — probability updates, edge inserts,
// edge removals — applied atomically per batch under an optimistic
// concurrency check (Apply's ifVersion; a mismatch is the typed
// phomerr.CodeConflict). State is copy-on-write: every Apply publishes
// a fresh immutable Snapshot and never mutates a published one, so
// in-flight solves that captured the pre-delta snapshot finish against
// it unperturbed while new work sees the new version. Deltas serialize
// per instance (a mutex around Apply); reads are a lock-free atomic
// load.
//
// Plan maintenance across structural deltas — reusing the untouched
// per-component parts of the previous version's compiled plans — is
// core.PatchCompile; the engine's instance registry wires the two
// together and keeps the caches honest.
package instance

import (
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"phom/internal/graph"
	"phom/internal/phomerr"
)

// Op is the kind of one Delta.
type Op uint8

const (
	// OpSetProb replaces the probability of an existing edge. A batch of
	// OpSetProb deltas is structure-preserving: plans survive verbatim
	// and evaluation is a plain reweight.
	OpSetProb Op = iota
	// OpAddEdge inserts a new edge (appended to the edge list) carrying
	// the given label and probability (nil Prob means 1).
	OpAddEdge
	// OpRemoveEdge deletes an existing edge; later edges shift down one
	// index (the renumbering core.PatchCompile transports plans across).
	OpRemoveEdge

	numOps = iota
)

var opNames = [numOps]string{"set_prob", "add_edge", "remove_edge"}

func (o Op) String() string {
	if int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// ParseOp parses the wire name of a delta op ("set_prob", "add_edge",
// "remove_edge").
func ParseOp(s string) (Op, error) {
	for i, name := range opNames {
		if s == name {
			return Op(i), nil
		}
	}
	return 0, phomerr.New(phomerr.CodeBadInput, "instance: unknown delta op %q (want one of %v)", s, opNames)
}

// Delta is one typed mutation of an instance. Edges are addressed by
// their (From, To) endpoint pair — graphs have no multi-edges, so the
// pair is a unique edge identity that survives renumbering.
type Delta struct {
	Op       Op
	From, To graph.Vertex
	Label    graph.Label // OpAddEdge only
	Prob     *big.Rat    // OpSetProb (required), OpAddEdge (nil = 1)
}

// Structural reports whether the delta changes the underlying graph
// (and therefore the structure key) rather than only π.
func (d Delta) Structural() bool { return d.Op != OpSetProb }

// Snapshot is one immutable published version of an instance. H and
// everything reachable from it must never be mutated: concurrent solves
// hold snapshots without locks.
type Snapshot struct {
	H       *graph.ProbGraph
	Version uint64
}

// Instance is a named, versioned mutable probabilistic graph. The zero
// value is not usable; create instances with New.
type Instance struct {
	id  string
	mu  sync.Mutex // serializes Apply (writers); readers never take it
	cur atomic.Pointer[Snapshot]
	// deltas counts individual deltas applied over the instance's
	// lifetime (not batches), for the serving tier's counters.
	deltas atomic.Int64
}

// New creates an instance at version 1 owning a deep copy of h (the
// caller's graph stays free to mutate). The instance must be non-empty
// and carry valid probabilities; failures are typed CodeBadInput.
func New(id string, h *graph.ProbGraph) (*Instance, error) {
	if h == nil || h.G.NumVertices() == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "instance: empty instance graph")
	}
	if err := phomerr.Wrap(phomerr.CodeBadInput, h.Validate()); err != nil {
		return nil, err
	}
	in := &Instance{id: id}
	in.cur.Store(&Snapshot{H: h.Clone(), Version: 1})
	return in, nil
}

// ID returns the instance's name.
func (in *Instance) ID() string { return in.id }

// Snapshot returns the current published version. The result is
// immutable and safe to use concurrently with Apply.
func (in *Instance) Snapshot() *Snapshot { return in.cur.Load() }

// Version returns the current version number.
func (in *Instance) Version() uint64 { return in.cur.Load().Version }

// DeltasApplied returns the lifetime count of individual deltas applied.
func (in *Instance) DeltasApplied() int64 { return in.deltas.Load() }

// ApplyResult reports one successful Apply: the snapshot the batch was
// applied against, the newly published snapshot, and whether any delta
// changed the graph structure (plans must be patched or recompiled)
// rather than only probabilities (plans survive verbatim).
type ApplyResult struct {
	Old, New   *Snapshot
	Structural bool
}

// Apply validates and applies a batch of deltas atomically: either the
// whole batch commits as one new version or the instance is left
// untouched. ifVersion < 0 applies unconditionally; ifVersion ≥ 0 is an
// optimistic concurrency check against the current version, failing
// with the typed phomerr.CodeConflict on mismatch (the serving layer's
// 409). Malformed deltas — unknown edges, out-of-range endpoints or
// probabilities, duplicate inserts — fail with CodeBadInput.
//
// Apply is copy-on-write: the new version's ProbGraph shares nothing
// mutable with the old one (a probability-only batch shares the
// underlying *Graph, which is immutable once published), so concurrent
// readers of older snapshots are never disturbed.
func (in *Instance) Apply(ifVersion int64, deltas []Delta) (*ApplyResult, error) {
	if len(deltas) == 0 {
		return nil, phomerr.New(phomerr.CodeBadInput, "instance: empty delta batch")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	old := in.cur.Load()
	if ifVersion >= 0 && uint64(ifVersion) != old.Version {
		return nil, phomerr.New(phomerr.CodeConflict,
			"instance %s is at version %d, not %d", in.id, old.Version, ifVersion)
	}

	g := old.H.G // shared until the first structural delta clones it
	probs := old.H.Probs()
	structural := false
	for di, d := range deltas {
		switch d.Op {
		case OpSetProb:
			if d.Prob == nil {
				return nil, phomerr.New(phomerr.CodeBadInput, "instance: delta %d: set_prob without a probability", di)
			}
			i, ok := g.EdgeIndex(d.From, d.To)
			if !ok {
				return nil, phomerr.New(phomerr.CodeBadInput, "instance: delta %d: no edge %d>%d", di, d.From, d.To)
			}
			if err := validProb(d.Prob); err != nil {
				return nil, phomerr.New(phomerr.CodeBadInput, "instance: delta %d: %v", di, err)
			}
			probs[i] = new(big.Rat).Set(d.Prob)
		case OpAddEdge:
			p := graph.RatOne
			if d.Prob != nil {
				if err := validProb(d.Prob); err != nil {
					return nil, phomerr.New(phomerr.CodeBadInput, "instance: delta %d: %v", di, err)
				}
				p = new(big.Rat).Set(d.Prob)
			}
			if g == old.H.G {
				g = g.Clone()
			}
			if err := g.AddEdge(d.From, d.To, d.Label); err != nil {
				return nil, phomerr.Wrap(phomerr.CodeBadInput, fmt.Errorf("instance: delta %d: %w", di, err))
			}
			probs = append(probs, p)
			structural = true
		case OpRemoveEdge:
			i, ok := g.EdgeIndex(d.From, d.To)
			if !ok {
				return nil, phomerr.New(phomerr.CodeBadInput, "instance: delta %d: no edge %d>%d", di, d.From, d.To)
			}
			g = g.WithoutEdge(i) // always returns a fresh graph
			probs = append(probs[:i], probs[i+1:]...)
			structural = true
		default:
			return nil, phomerr.New(phomerr.CodeBadInput, "instance: delta %d: unknown op %d", di, d.Op)
		}
	}

	// Every value in probs is either the old snapshot's (immutable) or a
	// fresh copy made above, so the new snapshot can share them.
	h2, err := graph.NewProbGraphWith(g, probs)
	if err != nil {
		return nil, phomerr.Wrap(phomerr.CodeBadInput, err)
	}
	next := &Snapshot{H: h2, Version: old.Version + 1}
	in.cur.Store(next)
	in.deltas.Add(int64(len(deltas)))
	return &ApplyResult{Old: old, New: next, Structural: structural}, nil
}

func validProb(r *big.Rat) error {
	if r.Sign() < 0 || r.Cmp(graph.RatOne) > 0 {
		return fmt.Errorf("probability %s outside [0,1]", r.RatString())
	}
	return nil
}

// ClassCensus tallies the tightest class of every connected component
// of g — the per-component view of the Tables 1–3 dispatch the serving
// tier reports for a live instance.
func ClassCensus(g *graph.Graph) map[string]int {
	out := make(map[string]int)
	for _, comp := range g.Components() {
		out[comp.TightestClass().String()]++
	}
	return out
}
