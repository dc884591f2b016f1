package generate

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/dk"
	"repro/internal/graph"
)

// PseudographResult carries a configuration-model construction together
// with its defect accounting ("badnesses" in the paper's terminology).
type PseudographResult struct {
	// Full is the raw pseudograph after loop/multi-edge removal, with all
	// nodes retained.
	Full *graph.CSR
	// GCC is the giant connected component, the graph the paper's
	// pipeline continues with.
	GCC *graph.CSR
	// NewToOld maps GCC node ids back to Full node ids.
	NewToOld []int
	// Badness counts discarded self-loops, parallel edges and
	// small-component losses.
	Badness graph.Badness
	// AdjustedNodes counts nodes whose realized stub count was trimmed
	// because a degree class's endpoint total was not divisible by its
	// degree (possible only for rescaled or hand-built inputs).
	AdjustedNodes int
	// Labels records each Full-graph node's target degree class. Realized
	// degrees can fall below the label when loops or duplicate edges were
	// removed.
	Labels []int
}

// Pseudograph1K is the classical configuration model (PLRG): each node of
// degree k contributes k stubs, the stub list is shuffled, and consecutive
// stubs are paired into edges. Self-loops and duplicate edges are then
// removed and the giant connected component extracted, per the paper.
func Pseudograph1K(dd *dk.DegreeDist, opt Options) (*PseudographResult, error) {
	rng, err := opt.rng()
	if err != nil {
		return nil, err
	}
	if dd.N == 0 {
		return nil, fmt.Errorf("generate: empty degree distribution")
	}
	if dd.TotalDegree()%2 != 0 {
		return nil, fmt.Errorf("generate: degree sequence sums to odd total %d", dd.TotalDegree())
	}
	cls := classesFromDist(dd)
	stubs := make([]int, 0, dd.TotalDegree())
	for i, k := range cls.degrees {
		for _, u := range cls.nodes[i] {
			for s := 0; s < k; s++ {
				stubs = append(stubs, u)
			}
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	mg := graph.NewMultigraph(cls.n)
	for i := 0; i+1 < len(stubs); i += 2 {
		mg.AddEdge(stubs[i], stubs[i+1])
	}
	return finishPseudograph(mg, 0, ClassLabels(dd)), nil
}

// ClassLabels returns the target degree label of each node id under the
// deterministic class layout shared by the stochastic and configuration
// generators: node ids are assigned densely in ascending class-degree
// order.
func ClassLabels(dd *dk.DegreeDist) []int {
	cls := classesFromDist(dd)
	labels := make([]int, cls.n)
	for i, k := range cls.degrees {
		for _, u := range cls.nodes[i] {
			labels[u] = k
		}
	}
	return labels
}

// Pseudograph2K is the paper's 2K extension of the configuration model
// (Section 4.1.2): prepare m(k1,k2) disconnected edges with ends labeled
// k1 and k2, pool all edge-ends with label k, shuffle the pool, and carve
// it into groups of k — each group becomes one k-degree node. Loops and
// duplicate edges are removed and the GCC extracted afterwards.
func Pseudograph2K(jdd *dk.JDD, opt Options) (*PseudographResult, error) {
	rng, err := opt.rng()
	if err != nil {
		return nil, err
	}
	if jdd.M == 0 {
		return nil, fmt.Errorf("generate: empty JDD")
	}
	// Edge ends, grouped by degree label. ends[k] holds edge indices; an
	// edge of class (k,k) contributes its index twice.
	type halfEdge struct {
		edge int
		side int // 0 or 1
	}
	ends := make(map[int][]halfEdge)
	m := 0
	for _, pair := range jdd.Pairs() {
		for c := 0; c < jdd.Count[pair]; c++ {
			ends[pair.K1] = append(ends[pair.K1], halfEdge{m, 0})
			ends[pair.K2] = append(ends[pair.K2], halfEdge{m, 1})
			m++
		}
	}
	endpoints := make([][2]int, m) // node assignment per edge side
	var labels []int
	node, adjusted := 0, 0
	// Deterministic class order (map iteration would change node ids).
	for _, k := range slices.Sorted(maps.Keys(ends)) {
		pool := ends[k]
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for off := 0; off < len(pool); off += k {
			hi := off + k
			if hi > len(pool) {
				hi = len(pool) // trimmed final node (non-divisible input)
				adjusted++
			}
			for _, he := range pool[off:hi] {
				endpoints[he.edge][he.side] = node
			}
			labels = append(labels, k)
			node++
		}
	}
	mg := graph.NewMultigraph(node)
	for _, ep := range endpoints {
		mg.AddEdge(ep[0], ep[1])
	}
	return finishPseudograph(mg, adjusted, labels), nil
}

func finishPseudograph(mg *graph.Multigraph, adjusted int, labels []int) *PseudographResult {
	gcc, newToOld, bad := mg.SimplifyToGCC()
	full, _ := mg.Simplify()
	return &PseudographResult{
		Full:          full,
		GCC:           gcc,
		NewToOld:      newToOld,
		Badness:       bad,
		AdjustedNodes: adjusted,
		Labels:        labels,
	}
}
