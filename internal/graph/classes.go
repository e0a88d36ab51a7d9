package graph

// Class identifies one of the paper's graph classes (§2, Figure 2).
type Class int

// The graph classes studied by the paper. U-prefixed classes are the
// disjoint-union closures ⊔1WP, ⊔2WP, ⊔DWT, ⊔PT: graphs whose connected
// components all lie in the base class.
const (
	Class1WP       Class = iota // one-way paths
	Class2WP                    // two-way paths
	ClassDWT                    // downward trees
	ClassPT                     // polytrees
	ClassConnected              // connected graphs
	ClassU1WP                   // disjoint unions of one-way paths
	ClassU2WP                   // disjoint unions of two-way paths
	ClassUDWT                   // disjoint unions of downward trees
	ClassUPT                    // disjoint unions of polytrees (forests)
	ClassAll                    // all graphs
	numClasses
)

// AllClasses lists every class in a fixed order.
var AllClasses = []Class{
	Class1WP, Class2WP, ClassDWT, ClassPT, ClassConnected,
	ClassU1WP, ClassU2WP, ClassUDWT, ClassUPT, ClassAll,
}

var classNames = map[Class]string{
	Class1WP:       "1WP",
	Class2WP:       "2WP",
	ClassDWT:       "DWT",
	ClassPT:        "PT",
	ClassConnected: "Connected",
	ClassU1WP:      "⊔1WP",
	ClassU2WP:      "⊔2WP",
	ClassUDWT:      "⊔DWT",
	ClassUPT:       "⊔PT",
	ClassAll:       "All",
}

func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return "Class(?)"
}

// Base returns the connected base class of a disjoint-union class, and the
// class itself otherwise.
func (c Class) Base() Class {
	switch c {
	case ClassU1WP:
		return Class1WP
	case ClassU2WP:
		return Class2WP
	case ClassUDWT:
		return ClassDWT
	case ClassUPT:
		return ClassPT
	}
	return c
}

// Union returns the disjoint-union closure of a base class (⊔C), the class
// itself for classes already closed under disjoint union.
func (c Class) Union() Class {
	switch c {
	case Class1WP:
		return ClassU1WP
	case Class2WP:
		return ClassU2WP
	case ClassDWT:
		return ClassUDWT
	case ClassPT:
		return ClassUPT
	case ClassConnected:
		return ClassAll
	}
	return c
}

// Is1WP reports whether g is a one-way path a₁ → a₂ → … → aₘ covering all
// vertices (Figure 3, top). The single-vertex graph is the 1WP of length 0.
func (g *Graph) Is1WP() bool { return g.InClass(Class1WP) }

// Is2WP reports whether g is a two-way path a₁ − a₂ − … − aₘ, each edge
// oriented arbitrarily (Figure 3, bottom).
func (g *Graph) Is2WP() bool { return g.InClass(Class2WP) }

// IsDWT reports whether g is a downward tree: a rooted unranked tree with
// every edge oriented from parent to child (Figure 4, left).
func (g *Graph) IsDWT() bool { return g.InClass(ClassDWT) }

// DWTRoot returns the root of a downward tree. It panics if g is not a DWT.
func (g *Graph) DWTRoot() Vertex {
	if !g.IsDWT() {
		panic("graph: DWTRoot on a non-DWT graph")
	}
	for v := 0; v < g.n; v++ {
		if g.InDegree(Vertex(v)) == 0 {
			return Vertex(v)
		}
	}
	panic("graph: DWT without a root")
}

// IsPolytree reports whether the underlying undirected graph of g is a
// tree (Figure 4, right).
func (g *Graph) IsPolytree() bool { return g.InClass(ClassPT) }

// InClass reports whether g belongs to the given class. The answer
// comes from the memoized class set (see classInfo), so route guards can
// ask it per request at no cost after the first.
func (g *Graph) InClass(c Class) bool {
	if c < 0 || c >= numClasses {
		return false
	}
	set, _ := g.classInfo()
	return set&(1<<c) != 0
}

// Classify returns every class g belongs to, in AllClasses order.
func (g *Graph) Classify() []Class {
	var out []Class
	for _, c := range AllClasses {
		if g.InClass(c) {
			out = append(out, c)
		}
	}
	return out
}

// TightestClass returns the smallest class (w.r.t. the Figure 2
// inclusion lattice) that contains g. Used to locate the Tables 1–3 cell
// of an input pair. The lattice has no meets, so g may also lie in a
// class incomparable with the result: a←b→c is a DWT and a 2WP but not a
// 1WP, and reports 2WP, the first of the two in AllClasses order. Ask
// InClass for membership. The answer is memoized on the graph
// (invalidated by mutation), so serving-path callers can re-ask per
// evaluation without re-walking the graph.
func (g *Graph) TightestClass() Class {
	_, tightest := g.classInfo()
	return tightest
}

// Layout of the Graph.classes memo: bits 0 … numClasses−1 hold the class
// set, the byte at classTightestShift the tightest class, and
// classesKnown marks the memo as filled.
const (
	classTightestShift = 16
	classesKnown       = 1 << 31
)

// classInfo returns the set of classes g belongs to (bit c for Class c)
// and its tightest class, computing them on the first call after a
// mutation.
//
// Membership is derived from the component partition in one pass over
// the vertices, with no component materialised. A component with nc
// vertices and mc edges is a polytree iff mc = nc−1 (it is connected).
// A polytree has no antiparallel pair and no self-loop, so a vertex's
// undirected degree is its in- plus out-degree, and the polytree is a
// DWT iff every in-degree is ≤ 1, a 2WP iff every degree is ≤ 2, and a
// 1WP iff every in- and out-degree is ≤ 1. g is in a base class iff it
// is one component in it, and in its ⊔-closure iff every component is.
func (g *Graph) classInfo() (uint32, Class) {
	if v := g.classes.Load(); v != 0 {
		return v & (1<<numClasses - 1), Class(v >> classTightestShift & 0xff)
	}
	var set uint32
	if g.n > 0 {
		compOf, k := g.componentLabels()
		type shape struct {
			vertices, edges    int
			in2, out2, degree3 bool
		}
		shapes := make([]shape, k)
		for v, c := range compOf {
			in, out := len(g.in[v]), len(g.out[v])
			sh := &shapes[c]
			sh.vertices++
			sh.edges += out
			sh.in2 = sh.in2 || in > 1
			sh.out2 = sh.out2 || out > 1
			sh.degree3 = sh.degree3 || in+out > 2
		}
		// everyComp: the base classes every component belongs to.
		everyComp := uint32(1<<Class1WP | 1<<Class2WP | 1<<ClassDWT | 1<<ClassPT)
		for _, sh := range shapes {
			var base uint32
			if sh.edges == sh.vertices-1 {
				base |= 1 << ClassPT
				if !sh.in2 {
					base |= 1 << ClassDWT
				}
				if !sh.degree3 {
					base |= 1 << Class2WP
				}
				if !sh.in2 && !sh.out2 {
					base |= 1 << Class1WP
				}
			}
			everyComp &= base
		}
		set = 1 << ClassAll
		for _, b := range []Class{Class1WP, Class2WP, ClassDWT, ClassPT} {
			if everyComp&(1<<b) != 0 {
				set |= 1 << b.Union()
			}
		}
		if k == 1 {
			set |= everyComp | 1<<ClassConnected
		}
	}
	tightest := ClassAll
	for _, c := range AllClasses {
		if set&(1<<c) != 0 && supersets[c]&(1<<tightest) != 0 {
			tightest = c
		}
	}
	g.classes.Store(set | uint32(tightest)<<classTightestShift | classesKnown)
	return set, tightest
}

// supersets[c] has bit d set iff ClassIncluded(c, d).
var supersets = func() (out [numClasses]uint32) {
	for _, c := range AllClasses {
		for _, d := range AllClasses {
			if ClassIncluded(c, d) {
				out[c] |= 1 << d
			}
		}
	}
	return out
}()

// ClassIncluded reports whether every graph of class a is a graph of
// class b, following the inclusion diagram of Figure 2 extended to the
// disjoint-union classes.
func ClassIncluded(a, b Class) bool {
	if a == b || b == ClassAll {
		return true
	}
	direct := map[Class][]Class{
		Class1WP:       {Class2WP, ClassDWT, ClassU1WP},
		Class2WP:       {ClassPT, ClassU2WP},
		ClassDWT:       {ClassPT, ClassUDWT},
		ClassPT:        {ClassConnected, ClassUPT},
		ClassConnected: {ClassAll},
		ClassU1WP:      {ClassU2WP, ClassUDWT},
		ClassU2WP:      {ClassUPT},
		ClassUDWT:      {ClassUPT},
		ClassUPT:       {ClassAll},
	}
	seen := map[Class]bool{a: true}
	stack := []Class{a}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range direct[c] {
			if d == b {
				return true
			}
			if !seen[d] {
				seen[d] = true
				stack = append(stack, d)
			}
		}
	}
	return false
}
