package graph

import (
	"bufio"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// canonicalPairs returns g's edges as label pairs in canonical form:
// each pair ordered a <= b, the list sorted lexicographically. This is
// THE canonical edge list — ContentHash hashes exactly these lines and
// WriteCanonicalEdgeList emits them, so the two can never drift apart.
func canonicalPairs(g *CSR, labels []int) [][2]int {
	pairs := make([][2]int, 0, g.M())
	for _, e := range g.edges {
		a, b := int(e.U), int(e.V)
		if labels != nil {
			a, b = labels[a], labels[b]
		}
		if a > b {
			a, b = b, a
		}
		pairs = append(pairs, [2]int{a, b})
	}
	slices.SortFunc(pairs, func(x, y [2]int) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
	return pairs
}

// ContentHash computes the content address of a graph: "sha256:" plus the
// hex digest of its canonical edge list. The canonical form is the list of
// label pairs "a b" with a <= b, sorted lexicographically by (a, b), one
// per line — so two inputs with the same edge set hash identically
// regardless of line order, comments, whitespace, or the order node labels
// first appear. labels maps dense node ids back to the labels of the
// original input; pass nil to use the dense ids themselves.
//
// The HTTP service keys its profile cache by this address, and the
// persistent artifact store (internal/store) uses it as the on-disk name
// of every graph and profile artifact.
func ContentHash(g *CSR, labels []int) string {
	h := sha256.New()
	var buf [32]byte
	for _, p := range canonicalPairs(g, labels) {
		line := buf[:0]
		line = strconv.AppendInt(line, int64(p[0]), 10)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(p[1]), 10)
		line = append(line, '\n')
		h.Write(line)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// WriteCanonicalEdgeList writes g as its canonical text edge list under
// the original node labels: a size-header comment followed by exactly
// the lines ContentHash hashes. Re-parsing the output therefore
// reproduces the same content address — the round trip `dkstore export`
// then `import` relies on.
func WriteCanonicalEdgeList(w io.Writer, g *CSR, labels []int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for _, p := range canonicalPairs(g, labels) {
		if _, err := fmt.Fprintf(bw, "%d %d\n", p[0], p[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
