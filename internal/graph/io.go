package graph

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ErrLimit marks inputs rejected by a ReadLimits bound. Callers that
// accept untrusted input (the HTTP service's upload path) match it with
// errors.Is to map oversized graphs to a "payload too large" response
// instead of a generic parse failure.
var ErrLimit = errors.New("input exceeds limit")

// ReadLimits bounds ReadEdgeListLimit when parsing untrusted input. The
// zero value imposes no limits, which is what ReadEdgeList uses for
// trusted local files.
type ReadLimits struct {
	// MaxBytes caps the total input size in bytes (0 = unlimited).
	// Parsing stops — streaming, without buffering the whole input —
	// as soon as the limit is crossed.
	MaxBytes int64
	// MaxEdges caps the number of edges (0 = unlimited).
	MaxEdges int
	// MaxNodes caps the number of distinct node labels (0 = unlimited).
	MaxNodes int
}

// ReadEdgeList parses a whitespace-separated edge list, one edge per line:
//
//	# comment
//	0 12
//	12 7
//
// Node labels may be arbitrary non-negative integers; they are remapped to
// dense ids 0..n-1 in order of first appearance. The returned labels slice
// maps dense id → original label. The graph's edge list is in sorted
// canonical order (EdgesCanonicallyOrdered), whatever the line order.
//
// Self-loops and duplicate edges are rejected with an error naming the
// offending line. A malformed line, a self-loop or a crossed ReadLimits
// bound is reported as soon as it is read; duplicates are found only
// after the whole input has been read, so any of those errors takes
// precedence over a duplicate on an earlier line. A duplicate is
// reported at the first line that repeats an earlier edge.
func ReadEdgeList(r io.Reader) (g *CSR, labels []int, err error) {
	return ReadEdgeListLimit(r, ReadLimits{})
}

// ReadEdgeListLimit is ReadEdgeList with resource bounds, for parsing
// edge lists from untrusted sources (network request bodies). The input
// is consumed as a stream: an input crossing a bound fails fast with an
// error wrapping ErrLimit rather than being read to the end. Duplicate
// edges count toward MaxEdges.
func ReadEdgeListLimit(r io.Reader, lim ReadLimits) (g *CSR, labels []int, err error) {
	cr := &countingReader{r: r}
	if lim.MaxBytes > 0 {
		// Read at most one byte past the cap so "exactly at the limit"
		// still parses while anything longer is detected exactly.
		cr.r = io.LimitReader(r, lim.MaxBytes+1)
	}
	sc := bufio.NewScanner(cr)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	idOf := make(map[int]int32)
	intern := func(label int) int32 {
		id, ok := idOf[label]
		if !ok {
			id = int32(len(labels))
			idOf[label] = id
			labels = append(labels, label)
		}
		return id
	}
	// read holds every edge with the line it came from, in canonical
	// orientation; sorting brings duplicates next to each other.
	var read []lineEdge
	lineNo := 0
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
		if a == b {
			return nil, nil, fmt.Errorf("graph: line %d: self-loop at node %d", lineNo, a)
		}
		e := edge32{intern(a), intern(b)}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		read = append(read, lineEdge{e, lineNo})
		if lim.MaxNodes > 0 && len(labels) > lim.MaxNodes {
			return nil, nil, fmt.Errorf("graph: line %d: %w: more than %d nodes", lineNo, ErrLimit, lim.MaxNodes)
		}
		if lim.MaxEdges > 0 && len(read) > lim.MaxEdges {
			return nil, nil, fmt.Errorf("graph: line %d: %w: more than %d edges", lineNo, ErrLimit, lim.MaxEdges)
		}
	}
	if err := sc.Err(); err != nil {
		// Wrap (not flatten) so callers can still match the underlying
		// reader's error, e.g. http.MaxBytesError from a capped body.
		return nil, nil, fmt.Errorf("graph: read: %w", err)
	}
	if lim.MaxBytes > 0 && cr.n > lim.MaxBytes {
		return nil, nil, fmt.Errorf("graph: %w: more than %d bytes", ErrLimit, lim.MaxBytes)
	}
	slices.SortFunc(read, func(x, y lineEdge) int {
		if c := cmp.Compare(x.e.key(), y.e.key()); c != 0 {
			return c
		}
		return cmp.Compare(x.line, y.line)
	})
	edges := make([]edge32, len(read))
	dup := -1
	for i, le := range read {
		if i > 0 && le.e == read[i-1].e && (dup < 0 || le.line < read[dup].line) {
			dup = i
		}
		edges[i] = le.e
	}
	if dup >= 0 {
		e := read[dup].e
		return nil, nil, fmt.Errorf("graph: line %d: duplicate edge %d %d", read[dup].line, labels[e.U], labels[e.V])
	}
	return csrFromCanonicalEdges(len(labels), edges), labels, nil
}

// lineEdge is a parsed edge and the input line it was read from.
type lineEdge struct {
	e    edge32
	line int
}

// countingReader counts bytes delivered to the scanner so byte limits are
// enforced on actual input size, not on buffer capacity.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// WriteEdgeList writes the graph as a sorted "u v" edge list, suitable for
// ReadEdgeList round-tripping. It walks the sorted neighbor windows, u
// ascending and then each neighbor v > u, which is the sorted edge list
// without sorting it.
func WriteEdgeList(w io.Writer, g *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	var line []byte
	for u := range g.N() {
		for _, v := range g.window(u) {
			if int(v) <= u {
				continue
			}
			line = strconv.AppendInt(line[:0], int64(u), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(v), 10)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteDOT renders the graph in Graphviz DOT format. Nodes with degree at
// or above hubThreshold are drawn filled so the core-vs-periphery hub
// placement that Figure 3 of the paper is read for stands out; pass 0 to
// disable highlighting.
func WriteDOT(w io.Writer, g *CSR, name string, hubThreshold int) error {
	bw := bufio.NewWriter(w)
	if name == "" {
		name = "G"
	}
	fmt.Fprintf(bw, "graph %q {\n  node [shape=point];\n", name)
	if hubThreshold > 0 {
		hubs := make([]int, 0)
		for u := 0; u < g.N(); u++ {
			if g.Degree(u) >= hubThreshold {
				hubs = append(hubs, u)
			}
		}
		sort.Ints(hubs)
		for _, u := range hubs {
			fmt.Fprintf(bw, "  %d [shape=circle, style=filled, label=%q];\n", u, strconv.Itoa(g.Degree(u)))
		}
	}
	for _, e := range g.SortedEdges() {
		fmt.Fprintf(bw, "  %d -- %d;\n", e.U, e.V)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
