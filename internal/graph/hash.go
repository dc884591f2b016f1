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

// canonicalPairs returns g's edges in canonical form: each edge as the
// label pair a <= b, the list sorted lexicographically by (a, b). This
// is THE canonical edge list — ContentHash hashes exactly these lines and
// WriteCanonicalEdgeList emits them, so the two can never drift apart.
//
// Nodes are ranked by label once (rank = id when labels is nil; equal
// labels share a rank), so an edge packs into one key rank_lo<<32|rank_hi
// whose integer order is the (a, b) order. Edge i is the label pair
// (byRank[keys[i]>>32], byRank[uint32(keys[i])]).
func canonicalPairs(g *CSR, labels []int) (keys []uint64, byRank []int) {
	order := make([]int32, g.N())
	for i := range order {
		order[i] = int32(i)
	}
	if labels != nil {
		slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(labels[x], labels[y]) })
	}
	rank := make([]uint32, g.N())
	byRank = make([]int, 0, g.N())
	for _, id := range order {
		l := int(id)
		if labels != nil {
			l = labels[id]
		}
		if len(byRank) == 0 || byRank[len(byRank)-1] != l {
			byRank = append(byRank, l)
		}
		rank[id] = uint32(len(byRank) - 1)
	}
	keys = make([]uint64, len(g.edges))
	for i, e := range g.edges {
		a, b := rank[e.U], rank[e.V]
		keys[i] = uint64(min(a, b))<<32 | uint64(max(a, b))
	}
	slices.Sort(keys)
	return keys, byRank
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
	const chunk = 64 << 10
	h := sha256.New()
	buf := make([]byte, 0, chunk)
	keys, byRank := canonicalPairs(g, labels)
	for _, k := range keys {
		if len(buf) > chunk-64 { // room for one line of two int64s
			h.Write(buf)
			buf = buf[:0]
		}
		buf = strconv.AppendInt(buf, int64(byRank[k>>32]), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(byRank[uint32(k)]), 10)
		buf = append(buf, '\n')
	}
	h.Write(buf)
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
	keys, byRank := canonicalPairs(g, labels)
	for _, k := range keys {
		if _, err := fmt.Fprintf(bw, "%d %d\n", byRank[k>>32], byRank[uint32(k)]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
