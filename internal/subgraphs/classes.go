package subgraphs

import "repro/internal/graph"

// DefaultBitsetThreshold is the fixed degree at or above which a node
// additionally keeps a bitset for O(1) membership probes. Below it,
// sorted-merge and binary search win on cache locality.
const DefaultBitsetThreshold = 64

// DegreeClasses interns a degree sequence into the degree-class table
// that Count, the Tracker and the JDD objective share. classDeg lists
// the distinct degrees in ascending order, so class order is degree
// order; classOf maps each degree in [0, max degree] to its class, or
// −1 where no node has that degree; cls maps each node to its class.
func DegreeClasses(deg []int) (classOf, classDeg, cls []int32) {
	maxDeg := 0
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	classOf = make([]int32, maxDeg+1)
	for i := range classOf {
		classOf[i] = -1
	}
	for _, d := range deg {
		classOf[d] = 0
	}
	classDeg = make([]int32, 0, 16)
	for d, seen := range classOf {
		if seen == 0 {
			classOf[d] = int32(len(classDeg))
			classDeg = append(classDeg, int32(d))
		}
	}
	cls = make([]int32, len(deg))
	for u, d := range deg {
		cls[u] = classOf[d]
	}
	return classOf, classDeg, cls
}

// hubBitsets gives every node of degree >= threshold a bitset of its
// neighbors over the node ids, and every other node nil.
func hubBitsets(g *graph.CSR, threshold int) [][]uint64 {
	words := (g.N() + 63) / 64
	bits := make([][]uint64, g.N())
	for u := range bits {
		if g.Degree(u) >= threshold {
			bs := make([]uint64, words)
			for _, v := range g.Neighbors(u) {
				bs[uint(v)>>6] |= 1 << (uint(v) & 63)
			}
			bits[u] = bs
		}
	}
	return bits
}

// bsHas probes membership of w in a node bitset.
func bsHas(bs []uint64, w int32) bool {
	return bs[uint(w)>>6]&(1<<(uint(w)&63)) != 0
}
