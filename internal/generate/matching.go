package generate

import (
	"fmt"
	"math/rand"

	"repro/internal/dk"
	"repro/internal/graph"
)

// Matching1K is the loop-avoiding variant of the configuration model
// (Section 4.1.3): stubs are paired like in Pseudograph1K but pairs that
// would form a self-loop or duplicate edge are skipped. Deadlocks — stub
// multisets whose remaining members cannot legally pair — are resolved by
// re-breaking a random existing edge: to place stubs (u,v) that cannot
// connect, pick an edge (a,b) with (u,a) and (v,b) both legal, replace it
// by those two edges. The result is a simple graph realizing the degree
// sequence exactly (when the sequence is graphical and resolution
// succeeds).
func Matching1K(dd *dk.DegreeDist, opt Options) (*graph.CSR, error) {
	rng, err := opt.rng()
	if err != nil {
		return nil, err
	}
	if dd.N == 0 {
		return nil, fmt.Errorf("generate: empty degree distribution")
	}
	if dd.TotalDegree()%2 != 0 {
		return nil, fmt.Errorf("generate: degree sequence sums to odd total")
	}
	if !dk.GraphicalDist(dd) {
		return nil, fmt.Errorf("generate: degree sequence is not graphical")
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
	g := graph.NewCSR(cls.n)

	maxAttempts := opt.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 200
	}
	// Pair stubs back-to-front so removal is O(1).
	for len(stubs) >= 2 {
		u := stubs[len(stubs)-1]
		stubs = stubs[:len(stubs)-1]
		placed := false
		for attempt := 0; attempt < maxAttempts && attempt < len(stubs); attempt++ {
			j := rng.Intn(len(stubs))
			v := stubs[j]
			if v == u || g.HasEdge(u, v) {
				continue
			}
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			mustAdd(g, u, v)
			placed = true
			break
		}
		if placed {
			continue
		}
		// Deadlock: all candidate partners collide. Resolve by edge
		// re-breaking with an arbitrary remaining stub v.
		j := rng.Intn(len(stubs))
		v := stubs[j]
		stubs[j] = stubs[len(stubs)-1]
		stubs = stubs[:len(stubs)-1]
		if err := rebreak(g, rng, u, v, maxAttempts); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// rebreak resolves a blocked stub pair (u,v) by splitting an existing edge
// (a,b): remove (a,b), add (u,a) and (v,b). Degrees of a and b are
// unchanged and both blocked stubs are consumed. Random probing is tried
// first; when every probe collides — on large hub-heavy sequences the
// pairing tail is dominated by one hub adjacent to a large fraction of
// the graph — a deterministic scan over the edge list finds a legal
// split if one exists, mirroring repairDefect in the 2K path.
func rebreak(g *graph.CSR, rng randIntn, u, v int, maxAttempts int) error {
	legal := func(a, b int) bool {
		return a != u && b != v && !g.HasEdge(u, a) && !g.HasEdge(v, b)
	}
	split := func(eu, ev, a, b int) {
		// The special case u == v (two stubs on one node) is fine as long
		// as both new edges are legal, which the caller's checks ensure.
		g.RemoveEdge(eu, ev)
		mustAdd(g, u, a)
		mustAdd(g, v, b)
	}
	for attempt := 0; attempt < maxAttempts && g.M() > 0; attempt++ {
		e := g.EdgeAt(rng.Intn(g.M()))
		a, b := e.U, e.V
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		if !legal(a, b) {
			continue
		}
		split(e.U, e.V, a, b)
		return nil
	}
	for _, e := range g.Edges() {
		if legal(e.U, e.V) {
			split(e.U, e.V, e.U, e.V)
			return nil
		}
		if legal(e.V, e.U) {
			split(e.U, e.V, e.V, e.U)
			return nil
		}
	}
	return fmt.Errorf("generate: matching deadlock unresolved after %d attempts", maxAttempts)
}

type randIntn interface{ Intn(int) int }

// Matching2K extends the matching approach to the 2K case: it realizes
// the joint degree distribution exactly as a simple graph. The
// construction lays out the same labeled edge-end grouping as the 2K
// pseudograph, but instead of discarding the self-loops and duplicate
// edges, it repairs each one with a JDD-preserving double-edge swap
// against a random legal partner edge (the "additional techniques" of
// Section 4.1.3). Deadlocked repairs trigger a full restart with a fresh
// shuffle; node degrees and the JDD match the target exactly on success.
func Matching2K(jdd *dk.JDD, opt Options) (*graph.CSR, error) {
	rng, err := opt.rng()
	if err != nil {
		return nil, err
	}
	const restarts = 8
	var lastErr error
	for attempt := 0; attempt < restarts; attempt++ {
		g, err := matching2KOnce(jdd, rng, opt.MaxAttempts)
		if err == nil {
			return g, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func matching2KOnce(jdd *dk.JDD, rng *rand.Rand, maxAttempts int) (*graph.CSR, error) {
	if maxAttempts == 0 {
		maxAttempts = 400
	}
	endpoints, labels, n, _, err := build2KEndpoints(jdd, rng)
	if err != nil {
		return nil, err
	}
	g := graph.NewCSR(n)
	// Lay down the clean edges; queue loops and duplicates as defects.
	var defects [][2]int
	for _, ep := range endpoints {
		u, v := ep[0], ep[1]
		if u != v && !g.HasEdge(u, v) {
			mustAdd(g, u, v)
		} else {
			defects = append(defects, ep)
		}
	}
	// Repair passes: each defect (u,v) — a stub pair that cannot be laid
	// down directly — is resolved against an existing edge (a,b) by
	// replacing it with (u,b) and (a,v). Degrees gain exactly the missing
	// stubs, and the JDD is preserved when label(b) = label(v) or
	// label(a) = label(u); legality needs both new edges absent. Defects
	// that fail this round are retried after the graph has changed.
	stall := 0
	for len(defects) > 0 {
		var remaining [][2]int
		for _, d := range defects {
			if !repairDefect(g, rng, labels, d[0], d[1], maxAttempts) {
				remaining = append(remaining, d)
			}
		}
		if len(remaining) == len(defects) {
			stall++
			if stall > 3 {
				return nil, fmt.Errorf("generate: 2K matching stuck with %d unrepaired defects", len(remaining))
			}
		} else {
			stall = 0
		}
		defects = remaining
	}
	return g, nil
}

// repairDefect inserts the stub pair (u,v) by splitting an existing edge
// (a,b): remove (a,b), add (u,b) and (a,v). It tries random partner
// edges first and falls back to an exhaustive scan.
func repairDefect(g *graph.CSR, rng randIntn, labels []int, u, v, maxAttempts int) bool {
	ku, kv := labels[u], labels[v]
	try := func(a, b int) bool {
		// Orientation (a,b): requires label match for JDD preservation.
		if labels[b] != kv && labels[a] != ku {
			return false
		}
		// u == b or a == v would create self-loops; a == u or b == v
		// degenerates to inserting the defect pair itself, which is
		// illegal by definition.
		if a == u || a == v || b == u || b == v {
			return false
		}
		if g.HasEdge(u, b) || g.HasEdge(a, v) {
			return false
		}
		g.RemoveEdge(a, b)
		mustAdd(g, u, b)
		mustAdd(g, a, v)
		return true
	}
	for attempt := 0; attempt < maxAttempts && g.M() > 0; attempt++ {
		e := g.EdgeAt(rng.Intn(g.M()))
		if try(e.U, e.V) || try(e.V, e.U) {
			return true
		}
	}
	for _, e := range g.Edges() {
		if try(e.U, e.V) || try(e.V, e.U) {
			return true
		}
	}
	return false
}

func mustAdd(g *graph.CSR, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic("generate: internal invariant violated: " + err.Error())
	}
}
