package generate

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/subgraphs"
)

// RewiringCount is one row of the paper's Table 5: the number of possible
// initial dK-preserving rewirings of a graph, exactly enumerated, with and
// without "obvious isomorphisms" — rewirings that exchange two degree-1
// endpoints, which map the graph to an isomorphic one (the paper's
// (1,k)/(1,k′) edge-pair example).
type RewiringCount struct {
	Depth             int
	Possible          int64
	IgnoringIsomorphs int64
}

// CountInitialRewirings enumerates the possible initial dK-preserving
// rewirings of g at the given depth.
//
//	depth 0: (edge, unoccupied node pair) combinations — each edge can move
//	         to any pair of distinct non-adjacent nodes.
//	depth 1: ordered-orientation double-edge swaps (u,v),(x,y) → (u,y),(x,v)
//	         with distinct endpoints and no duplicate edges, counted over
//	         unordered edge pairs and the two orientations.
//	depth 2: depth-1 swaps that also preserve the JDD (dv = dy or du = dx).
//	depth 3: depth-2 swaps whose wedge/triangle census delta is zero,
//	         read off each candidate by Tracker.SwapDelta without
//	         touching the graph.
//
// Isomorphism discounting subtracts swaps whose exchanged endpoints are
// both degree-1 (the paper reports no discount for depth 0).
//
// The enumeration is O(m²) candidate swaps with an O(d_u+d_v+d_x+d_y)
// census check at depth 3 — exact, intended for graphs of the HOT scale
// on which the paper reports Table 5.
func CountInitialRewirings(g *graph.CSR, depth int) (RewiringCount, error) {
	if depth < 0 || depth > 3 {
		return RewiringCount{}, fmt.Errorf("generate: depth %d outside 0..3", depth)
	}
	rc := RewiringCount{Depth: depth}
	n := int64(g.N())
	m := int64(g.M())
	if depth == 0 {
		// Pairs of distinct nodes not already adjacent, per edge; moving
		// an edge onto its own pair is the identity, and its pair is
		// occupied, so it is excluded automatically.
		free := n*(n-1)/2 - m
		rc.Possible = m * free
		rc.IgnoringIsomorphs = rc.Possible // paper reports no discount
		return rc, nil
	}

	deg := g.DegreeSequence()
	// The tracker backs the depth-3 census filter only — SwapDelta is
	// read-only, so the enumeration never mutates (or clones) the graph;
	// depths 1–2 decide every candidate from degrees and adjacency alone,
	// so building it there would just add an O(n + m) allocation.
	var tracker *subgraphs.Tracker
	var td *subgraphs.TrackerDelta
	if depth == 3 {
		tracker = subgraphs.NewTracker(g, deg)
		td = tracker.NewDelta()
	}

	edges := g.Edges()
	check := func(u, v, x, y int) (valid, isIso bool) {
		// Swap (u,v),(x,y) → (u,y),(x,v).
		if u == x || u == y || v == x || v == y {
			return false, false
		}
		// Four degree loads before the two window searches, as in
		// Rewirer.drawMove: most candidates fail the JDD test.
		if depth >= 2 && deg[v] != deg[y] && deg[u] != deg[x] {
			return false, false
		}
		if g.HasEdge(u, y) || g.HasEdge(x, v) {
			return false, false
		}
		if depth == 3 {
			// The depth-2 filter above guarantees the swap keeps the JDD,
			// which SwapDelta requires.
			tracker.SwapDelta(td, u, v, x, y)
			if !td.IsZero() {
				return false, false
			}
		}
		// Obvious isomorphism: the exchanged endpoints v and y are both
		// leaves (the paper's (1,k)-(1,k') case), or symmetrically the
		// fixed endpoints u and x are both leaves and dv = dy... the swap
		// relabels two degree-1 nodes.
		iso := (deg[v] == 1 && deg[y] == 1) || (deg[u] == 1 && deg[x] == 1)
		return true, iso
	}

	for i := 0; i < len(edges); i++ {
		for j := i + 1; j < len(edges); j++ {
			e1, e2 := edges[i], edges[j]
			// Two orientations: swap the second endpoints, or swap one
			// reversed. (u,v),(x,y)→(u,y),(x,v) and (u,v),(y,x)→(u,x),(y,v).
			for _, o := range [2][4]int{
				{e1.U, e1.V, e2.U, e2.V},
				{e1.U, e1.V, e2.V, e2.U},
			} {
				valid, iso := check(o[0], o[1], o[2], o[3])
				if valid {
					rc.Possible++
					if !iso {
						rc.IgnoringIsomorphs++
					}
				}
			}
		}
	}
	return rc, nil
}
