// Package graph implements the undirected simple-graph substrate used by
// every other package in this repository — the two workloads of the
// paper's pipeline: edge rewiring (the §4.1.4 construction engines) and
// traversal-heavy analysis (dK extraction, the §2 metric suite, the §5
// simulations).
//
// There is one graph type, CSR. Its sorted neighbor windows serve both
// workloads: rewiring mutates them in place, and extraction, metrics,
// spectra and simulations read them directly, with no snapshot copy.
// Each storage format has one reader and one writer, and both readers
// build the CSR in sorted canonical edge order: ReadEdgeList and
// WriteEdgeList for text, ReadBinary and WriteBinary for the binary
// "DKGB" format of the artifact store.
//
// Nodes are identified by dense integers 0..N()-1. Self-loops and parallel
// edges are rejected; the Multigraph type in multigraph.go handles the
// intermediate non-simple stages of configuration-model construction.
package graph

// Edge is an undirected edge between nodes U and V. Edges held inside a
// CSR are stored in canonical orientation (U < V), but the type itself
// does not enforce it so callers can construct edges in either order.
type Edge struct {
	U, V int
}

// Canon returns e with endpoints ordered so that U <= V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}
