package graph

// ConnectedComponents partitions the vertices of g into the connected
// components of its underlying undirected graph. Components are returned
// with vertices sorted, and components ordered by their smallest vertex,
// so the output is deterministic.
func (g *Graph) ConnectedComponents() [][]Vertex {
	compOf, k := g.componentLabels()
	comps := make([][]Vertex, k)
	for v, c := range compOf {
		comps[c] = append(comps[c], Vertex(v))
	}
	return comps
}

// componentLabels labels every vertex with the index of its connected
// component, components numbered in order of their smallest vertex, and
// returns the labels with the number of components.
func (g *Graph) componentLabels() ([]int, int) {
	compOf := make([]int, g.n)
	for v := range compOf {
		compOf[v] = -1
	}
	k := 0
	var stack []Vertex
	for s := 0; s < g.n; s++ {
		if compOf[s] >= 0 {
			continue
		}
		compOf[s] = k
		stack = append(stack[:0], Vertex(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Walk the incident edge indices directly rather than
			// through Neighbors: traversal only needs each endpoint
			// once, and the labels already deduplicate, so the map and
			// sort Neighbors pays for are wasted here.
			for _, i := range g.out[v] {
				if u := g.edges[i].To; compOf[u] < 0 {
					compOf[u] = k
					stack = append(stack, u)
				}
			}
			for _, i := range g.in[v] {
				if u := g.edges[i].From; compOf[u] < 0 {
					compOf[u] = k
					stack = append(stack, u)
				}
			}
		}
		k++
	}
	return compOf, k
}

// IsConnected reports whether the underlying undirected graph of g is
// connected. Following the paper, the single-vertex graph is connected and
// the empty graph is not a valid graph (we report it as not connected).
func (g *Graph) IsConnected() bool { return g.InClass(ClassConnected) }

// InducedSubgraph returns the subgraph of g induced by the given vertices
// (renumbered 0 … len(vs)−1 in the given order) together with the mapping
// old vertex → new vertex. Edges with an endpoint outside vs are dropped.
func (g *Graph) InducedSubgraph(vs []Vertex) (*Graph, map[Vertex]Vertex) {
	remap := make(map[Vertex]Vertex, len(vs))
	for i, v := range vs {
		remap[v] = Vertex(i)
	}
	h := New(len(vs))
	for _, e := range g.edges {
		nf, okf := remap[e.From]
		nt, okt := remap[e.To]
		if okf && okt {
			h.MustAddEdge(nf, nt, e.Label)
		}
	}
	return h, remap
}

// Components returns each connected component of g as a standalone graph
// (vertices renumbered), in deterministic order.
func (g *Graph) Components() []*Graph {
	comps, _ := g.split()
	return comps
}

// split builds every connected component of g in one pass over its
// edges. Component c is the subgraph InducedSubgraph(ConnectedComponents()[c])
// would build: vertices renumbered in increasing order, edges in g's
// edge-list order. edgeMaps[c][j] is the index in g of component c's
// j-th edge.
func (g *Graph) split() (comps []*Graph, edgeMaps [][]int) {
	compOf, k := g.componentLabels()
	local := make([]Vertex, g.n)
	size := make([]int, k)
	for v, c := range compOf {
		local[v] = Vertex(size[c])
		size[c]++
	}
	edgeCount := make([]int, k)
	for _, e := range g.edges {
		edgeCount[compOf[e.From]]++
	}
	comps = make([]*Graph, k)
	edgeMaps = make([][]int, k)
	for c := range comps {
		comps[c] = New(size[c])
		edgeMaps[c] = make([]int, 0, edgeCount[c])
	}
	for i, e := range g.edges {
		c := compOf[e.From]
		comps[c].MustAddEdge(local[e.From], local[e.To], e.Label)
		edgeMaps[c] = append(edgeMaps[c], i)
	}
	return comps, edgeMaps
}
