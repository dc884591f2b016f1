package generate

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

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
// split if one exists.
func rebreak(g *graph.CSR, rng *rand.Rand, u, v int, maxAttempts int) error {
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

// Matching2K extends the matching approach to the 2K case: it returns a
// random simple graph, node ids dense in ascending class-degree order,
// that realizes the JDD exactly, or an error naming the class pair that
// dk.GraphicalJDD finds unrealizable. realizeJDD builds one realization;
// JDD-preserving swaps connect all of them (Bassler et al.), and exactly
// 10·M depth-2 swap attempts follow. A stop counting accepted swaps or
// rejections, as Randomize's does, would favor realizations with more
// valid swaps (TestMatching2KUniform).
func Matching2K(jdd *dk.JDD, opt Options) (*graph.CSR, error) {
	rng, err := opt.rng()
	if err != nil {
		return nil, err
	}
	if jdd.M == 0 {
		return nil, fmt.Errorf("generate: empty JDD")
	}
	if err := dk.GraphicalJDD(jdd); err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	g := realizeJDD(jdd, rng)
	if r, err := NewRewirer(g, 2, rng); err == nil { // else M < 2: one realization
		if _, err := r.Run(0, 10*g.M(), 0); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// realizeJDD builds one realization of a graphical JDD, after Stanton
// and Pinar. Each class shuffles its ids and deals its stubs round-robin
// over the class pairs in Pairs order, so a node gets ⌊c/n_k⌋ or ⌈c/n_k⌉
// of a pair's c stubs. A cross pair joins one side's stubs in dealing
// order to the other's grouped by node: a run of ⌈m/n_k′⌉ ≤ n_k stubs
// meets distinct nodes. havelHakimi realizes a same-class pair, whose
// degrees are at most ⌈2m/n_k⌉ ≤ n_k − 1.
func realizeJDD(jdd *dk.JDD, rng *rand.Rand) *graph.CSR {
	dd, _ := jdd.DegreeDist() // GraphicalJDD has checked it
	class, dealt := make(map[int][]int32), make(map[int]int)
	var n int32
	for _, k := range dd.Degrees() {
		ids := make([]int32, dd.Count[k])
		for i := range ids {
			ids[i], n = n, n+1
		}
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		class[k] = ids
	}
	// deal hands out class k's next c stubs: the t-th goes to node(t).
	deal := func(k, c int) (node func(t int) int32) {
		ids, o := class[k], dealt[k]
		dealt[k] += c
		return func(t int) int32 { return ids[(o+t)%len(ids)] }
	}
	ends := make([]int32, 0, 2*jdd.M)
	for _, p := range jdd.Pairs() {
		m := jdd.Count[p]
		if p.K1 != p.K2 {
			a, b, nb := deal(p.K1, m), deal(p.K2, m), len(class[p.K2])
			i := 0
			for t := range min(m, nb) {
				for range (m - t + nb - 1) / nb { // b's stubs t, t+nb, …
					ends = append(ends, a(i), b(t))
					i++
				}
			}
			continue
		}
		c, nk := 2*m, len(class[p.K1])
		a := deal(p.K1, c)
		deg := make([]int, min(c, nk))
		for t := range deg {
			deg[t] = (c - t + nk - 1) / nk
		}
		if !havelHakimi(deg, func(x, y int) { ends = append(ends, a(x), a(y)) }) {
			panic(fmt.Sprintf("generate: internal invariant violated: class pair (%d,%d) of a graphical JDD has no realization", p.K1, p.K2))
		}
	}
	g := graph.NewCSR(int(n))
	g.RebuildEdges(ends)
	return g
}

// havelHakimi realizes the degree sequence deg on nodes 0..len(deg)−1,
// passing each edge to emit (some may precede a false return), and
// reports whether deg is graphical. The node of largest residual degree
// d joins the next d. One array keeps the nodes sorted in buckets of
// equal residual; a step takes whole buckets plus the far end of the
// last, so its decrements keep the array sorted. O(m + n log n).
func havelHakimi(deg []int, emit func(u, v int)) bool {
	n := len(deg)
	order := make([]int, n)
	for u, d := range deg {
		if d < 0 || d >= n {
			return false
		}
		order[u] = u
	}
	res := slices.Clone(deg)
	slices.SortStableFunc(order, func(u, v int) int { return res[v] - res[u] })
	at := func(p int) int { return res[order[p]] }
	for lo := 0; lo < n && at(lo) > 0; lo++ {
		u, last := order[lo], lo+at(lo) // last: the d-th partner
		if last >= n || at(last) == 0 {
			return false
		}
		// The bucket of residual x = at(last) spans s..e.
		x := at(last)
		s := lo + 1 + sort.Search(last-lo, func(i int) bool { return at(lo+1+i) <= x })
		e := last + sort.Search(n-last, func(i int) bool { return at(last+i) < x }) - 1
		join := func(vs []int) {
			for _, v := range vs {
				emit(u, v)
				res[v]--
			}
		}
		join(order[lo+1 : s])
		join(order[e-(last-s) : e+1])
	}
	return true
}

func mustAdd(g *graph.CSR, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic("generate: internal invariant violated: " + err.Error())
	}
}
