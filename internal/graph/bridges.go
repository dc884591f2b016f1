package graph

// Bridges returns the bridge edges of s — edges whose removal disconnects
// their component — via Tarjan's low-link algorithm with an explicit
// stack (no recursion, so deep chain graphs are safe). Edges are returned
// in canonical orientation.
func Bridges(s *CSR) []Edge {
	n := s.N()
	disc := make([]int32, n) // discovery time, 0 = unvisited
	low := make([]int32, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	var bridges []Edge
	time := int32(0)

	type frame struct {
		node int32
		next int32 // index into the neighbor window
	}
	stack := make([]frame, 0, 64)
	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		time++
		disc[root] = time
		low[root] = time
		stack = append(stack[:0], frame{int32(root), 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			nbrs := s.Neighbors(int(u))
			if int(f.next) < len(nbrs) {
				v := nbrs[f.next]
				f.next++
				if disc[v] == 0 {
					parent[v] = u
					time++
					disc[v] = time
					low[v] = time
					stack = append(stack, frame{v, 0})
				} else if v != parent[u] {
					if disc[v] < low[u] {
						low[u] = disc[v]
					}
				}
				continue
			}
			// Post-order: propagate low-link to the parent.
			stack = stack[:len(stack)-1]
			if p := parent[u]; p >= 0 {
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if low[u] > disc[p] {
					bridges = append(bridges, Edge{int(p), int(u)}.Canon())
				}
			}
		}
	}
	return bridges
}

// BridgeSet returns the bridges as a set keyed by canonical edge.
func BridgeSet(s *CSR) map[Edge]bool {
	bs := Bridges(s)
	out := make(map[Edge]bool, len(bs))
	for _, e := range bs {
		out[e] = true
	}
	return out
}
