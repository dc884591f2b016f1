package graph

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// mapGraph is the map-adjacency graph the CSR replaced, kept as the
// differential reference the CSR, the readers and the binary writer are
// pinned against. adj[u] maps a neighbor v to the index of edge (u,v) in
// edges; edges is the flat edge list in canonical orientation, with
// append-on-add and swap-remove semantics.
type mapGraph struct {
	adj   []map[int]int
	edges []Edge
}

func newMapGraph(n int) *mapGraph { return &mapGraph{adj: make([]map[int]int, n)} }

// mapFromEdges builds the reference graph from an edge list, keeping its
// order; it panics on an edge the graph cannot hold.
func mapFromEdges(n int, edges []Edge) *mapGraph {
	g := newMapGraph(n)
	for _, e := range edges {
		if err := g.AddEdge(e.U, e.V); err != nil {
			panic(err)
		}
	}
	return g
}

func (g *mapGraph) N() int { return len(g.adj) }

func (g *mapGraph) M() int { return len(g.edges) }

func (g *mapGraph) AddNode() int {
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

func (g *mapGraph) Degree(u int) int { return len(g.adj[u]) }

func (g *mapGraph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	_, ok := g.adj[u][v]
	return ok
}

func (g *mapGraph) AddEdge(u, v int) error {
	switch {
	case u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj):
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj))
	case u == v:
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if _, ok := g.adj[u][v]; ok {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{u, v}.Canon())
	if g.adj[u] == nil {
		g.adj[u] = make(map[int]int, 4)
	}
	if g.adj[v] == nil {
		g.adj[v] = make(map[int]int, 4)
	}
	g.adj[u][v] = idx
	g.adj[v][u] = idx
	return nil
}

// RemoveEdge deletes (u,v), moving the last edge into its slot.
func (g *mapGraph) RemoveEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		return false
	}
	idx, ok := g.adj[u][v]
	if !ok {
		return false
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	last := len(g.edges) - 1
	if idx != last {
		moved := g.edges[last]
		g.edges[idx] = moved
		g.adj[moved.U][moved.V] = idx
		g.adj[moved.V][moved.U] = idx
	}
	g.edges = g.edges[:last]
	return true
}

func (g *mapGraph) EdgeAt(i int) Edge { return g.edges[i] }

// Neighbors returns u's neighbors, sorted.
func (g *mapGraph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// sortedEdges returns the edge list in sorted canonical order.
func (g *mapGraph) sortedEdges() []Edge {
	out := slices.Clone(g.edges)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// readEdgeListRef is the text parser ReadEdgeList replaced: it adds each
// line's edge to a map graph as it streams, so it reports the first bad
// line of any kind, duplicates included, and keeps the input edge order.
func readEdgeListRef(r io.Reader, lim ReadLimits) (g *mapGraph, labels []int, err error) {
	cr := &countingReader{r: r}
	if lim.MaxBytes > 0 {
		cr.r = io.LimitReader(r, lim.MaxBytes+1)
	}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	idOf := make(map[int]int)
	g = newMapGraph(0)
	lineNo := 0
	intern := func(label int) int {
		id, ok := idOf[label]
		if !ok {
			id = g.AddNode()
			idOf[label] = id
			labels = append(labels, label)
		}
		return id
	}
	for sc.Scan() {
		lineNo++
		if lim.MaxBytes > 0 && cr.n > lim.MaxBytes {
			return nil, nil, fmt.Errorf("graph: %w: more than %d bytes", ErrLimit, lim.MaxBytes)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		a, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad node %q", lineNo, fields[0])
		}
		b, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad node %q", lineNo, fields[1])
		}
		if a < 0 || b < 0 {
			return nil, nil, fmt.Errorf("graph: line %d: negative node label", lineNo)
		}
		if err := g.AddEdge(intern(a), intern(b)); err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if lim.MaxNodes > 0 && g.N() > lim.MaxNodes {
			return nil, nil, fmt.Errorf("graph: line %d: %w: more than %d nodes", lineNo, ErrLimit, lim.MaxNodes)
		}
		if lim.MaxEdges > 0 && g.M() > lim.MaxEdges {
			return nil, nil, fmt.Errorf("graph: line %d: %w: more than %d edges", lineNo, ErrLimit, lim.MaxEdges)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: read: %w", err)
	}
	if lim.MaxBytes > 0 && cr.n > lim.MaxBytes {
		return nil, nil, fmt.Errorf("graph: %w: more than %d bytes", ErrLimit, lim.MaxBytes)
	}
	return g, labels, nil
}

// writeBinaryRef is the map graph's binary encoder: it sorts each node's
// forward neighbors out of the adjacency map. WriteBinary must produce
// the same bytes.
func writeBinaryRef(w io.Writer, g *mapGraph, labels []int) error {
	bw := bufio.NewWriter(w)
	bw.Write(binaryMagic[:])
	bw.WriteByte(binaryVersion)
	cw := &crcWriter{w: bw}
	var flags byte
	if labels != nil {
		flags |= labelFlag
	}
	cw.writeByte(flags)
	cw.writeUvarint(uint64(g.N()))
	cw.writeUvarint(uint64(g.M()))
	for u := 0; u < g.N(); u++ {
		var fwd []int
		for _, v := range g.Neighbors(u) {
			if v > u {
				fwd = append(fwd, v)
			}
		}
		cw.writeUvarint(uint64(len(fwd)))
		prev := u
		for _, v := range fwd {
			cw.writeUvarint(uint64(v - prev))
			prev = v
		}
	}
	prev := 0
	for _, l := range labels {
		cw.writeVarint(int64(l) - int64(prev))
		prev = l
	}
	if cw.err != nil {
		return cw.err
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], cw.crc)
	bw.Write(trailer[:])
	return bw.Flush()
}

// contentHashRef computes the content address from its definition: the
// SHA-256 of the sorted "a b" label-pair lines, a <= b. ContentHash must
// agree with it.
func contentHashRef(g *mapGraph, labels []int) string {
	pairs := make([][2]int, 0, g.M())
	for _, e := range g.edges {
		a, b := e.U, e.V
		if labels != nil {
			a, b = labels[a], labels[b]
		}
		pairs = append(pairs, [2]int{min(a, b), max(a, b)})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	h := sha256.New()
	for _, p := range pairs {
		fmt.Fprintf(h, "%d %d\n", p[0], p[1])
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
