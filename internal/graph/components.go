package graph

// Components labels the connected components of s. It returns a node→
// component-id slice (ids are dense, assigned in discovery order) and the
// size of each component.
func Components(s *Static) (comp []int32, sizes []int) {
	n := s.N()
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, n)
	next := int32(0)
	for root := 0; root < n; root++ {
		if comp[root] >= 0 {
			continue
		}
		id := next
		next++
		size := 1
		comp[root] = id
		queue = append(queue[:0], int32(root))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range s.Neighbors(int(u)) {
				if comp[v] < 0 {
					comp[v] = id
					size++
					queue = append(queue, v)
				}
			}
		}
		sizes = append(sizes, size)
	}
	return comp, sizes
}

// IsConnected reports whether s is connected (the empty graph counts as
// connected).
func IsConnected(s *Static) bool {
	if s.N() == 0 {
		return true
	}
	_, sizes := Components(s)
	return len(sizes) == 1
}

// GiantComponent returns the subgraph induced by the largest connected
// component of c, together with a mapping from new node ids to the
// original ids. Ties are broken by the smallest original root node, which
// makes the result deterministic.
func GiantComponent(c *CSR) (*CSR, []int) {
	comp, sizes := Components(c.Static())
	if len(sizes) == 0 {
		return NewCSR(0), nil
	}
	best := 0
	for id, sz := range sizes {
		if sz > sizes[best] {
			best = id
		}
	}
	nodes := make([]int, 0, sizes[best])
	for u, cc := range comp {
		if cc == int32(best) {
			nodes = append(nodes, u)
		}
	}
	return Subgraph(c, nodes)
}

// Subgraph returns the subgraph induced by the given node set and the
// new→old node id mapping. Nodes outside the set and edges with an
// endpoint outside the set are dropped; surviving edges keep their
// relative edge-list order, so downstream index-addressed edge draws
// are a pure function of (input order, node set).
func Subgraph(c *CSR, nodes []int) (*CSR, []int) {
	mark := make([]bool, c.N())
	for _, u := range nodes {
		mark[u] = true
	}
	oldToNew := make([]int, c.N())
	newToOld := make([]int, 0, len(nodes))
	for u := 0; u < c.N(); u++ {
		if mark[u] {
			oldToNew[u] = len(newToOld)
			newToOld = append(newToOld, u)
		} else {
			oldToNew[u] = -1
		}
	}
	kept := make([]edge32, 0, len(c.edges))
	for _, e := range c.edges {
		if mark[e.U] && mark[e.V] {
			kept = append(kept, pack(Edge{oldToNew[e.U], oldToNew[e.V]}.Canon()))
		}
	}
	return newCSRPreservingOrder(len(newToOld), kept), newToOld
}

// DropIsolated returns the subgraph with all degree-0 nodes removed and the
// new→old node id mapping.
func DropIsolated(c *CSR) (*CSR, []int) {
	nodes := make([]int, 0, c.N())
	for u := 0; u < c.N(); u++ {
		if c.Degree(u) > 0 {
			nodes = append(nodes, u)
		}
	}
	return Subgraph(c, nodes)
}
