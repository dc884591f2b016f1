package graph

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestReadEdgeListLimitRoundTrip(t *testing.T) {
	g := NewCSR(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, labels, err := ReadEdgeListLimit(&buf, ReadLimits{MaxBytes: 1 << 20, MaxEdges: 100, MaxNodes: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Interning renumbers nodes in first-appearance order; map dense ids
	// back through labels before comparing edge sets.
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round-trip changed size: got n=%d m=%d, want n=%d m=%d", h.N(), h.M(), g.N(), g.M())
	}
	for _, e := range h.SortedEdges() {
		if !g.HasEdge(labels[e.U], labels[e.V]) {
			t.Fatalf("round-trip invented edge %d–%d", labels[e.U], labels[e.V])
		}
	}
}

func TestReadEdgeListCommentsBlanksAndWhitespace(t *testing.T) {
	in := "# header comment\n\n  \t\n10 20\n\n# mid comment\n\t20   30\t\n30 10  \n"
	g, labels, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("got n=%d m=%d, want 3/3", g.N(), g.M())
	}
	want := []int{10, 20, 30}
	for i, l := range want {
		if labels[i] != l {
			t.Fatalf("labels[%d] = %d, want %d (first-appearance order)", i, labels[i], l)
		}
	}
}

func TestReadEdgeListMalformedLines(t *testing.T) {
	cases := []struct {
		name, in, wantSub string
		lim               ReadLimits
	}{
		{name: "one field", in: "0 1\n2\n", wantSub: "want 2 fields"},
		{name: "bad first node", in: "x 1\n", wantSub: `bad node "x"`},
		{name: "bad second node", in: "1 y\n", wantSub: `bad node "y"`},
		{name: "negative label", in: "0 -1\n", wantSub: "negative node label"},
		{name: "self-loop", in: "3 3\n", wantSub: "line 1"},
		{name: "duplicate edge", in: "0 1\n1 0\n", wantSub: "line 2"},
		{name: "float label", in: "0 1.5\n", wantSub: `bad node "1.5"`},
		// Duplicates are found after the whole input is read, so a later
		// malformed line or crossed bound is reported first, and among
		// several duplicates the first line that repeats an earlier edge
		// is named.
		{name: "bad node after duplicate", in: "0 1\n1 0\nx 1\n", wantSub: `bad node "x"`},
		{name: "edge limit after duplicate", in: "0 1\n1 0\n2 3\n", wantSub: "more than 2 edges", lim: ReadLimits{MaxEdges: 2}},
		{name: "first repeating line", in: "0 1\n2 3\n3 2\n1 0\n", wantSub: "line 3"},
		{name: "first repeating line, earlier edge", in: "0 1\n2 3\n1 0\n3 2\n", wantSub: "line 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadEdgeListLimit(strings.NewReader(tc.in), tc.lim)
			if err == nil {
				t.Fatalf("input %q parsed without error", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
			if errors.Is(err, ErrLimit) != (tc.lim != ReadLimits{}) {
				t.Fatalf("only a crossed bound may report ErrLimit: %v", err)
			}
		})
	}
}

func TestReadEdgeListLimitMaxBytes(t *testing.T) {
	in := "0 1\n1 2\n2 3\n"
	// Exactly at the limit parses.
	g, _, err := ReadEdgeListLimit(strings.NewReader(in), ReadLimits{MaxBytes: int64(len(in))})
	if err != nil {
		t.Fatalf("input exactly at MaxBytes rejected: %v", err)
	}
	if g.M() != 3 {
		t.Fatalf("m = %d, want 3", g.M())
	}
	// One byte under the limit fails with ErrLimit.
	_, _, err = ReadEdgeListLimit(strings.NewReader(in), ReadLimits{MaxBytes: int64(len(in)) - 1})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized input: got %v, want ErrLimit", err)
	}
}

func TestReadEdgeListLimitMaxBytesStreams(t *testing.T) {
	// A many-megabyte input against a tiny byte budget must fail after
	// reading O(limit) bytes, not the whole stream.
	big := &countingReader{r: strings.NewReader(strings.Repeat("0 1\n", 1<<20))}
	_, _, err := ReadEdgeListLimit(big, ReadLimits{MaxBytes: 16})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
	if big.n > 256*1024 {
		t.Fatalf("read %d bytes of a 4 MiB stream against a 16-byte limit; parse is not streaming", big.n)
	}
}

func TestReadEdgeListLimitMaxEdges(t *testing.T) {
	in := "0 1\n1 2\n2 3\n3 4\n"
	if _, _, err := ReadEdgeListLimit(strings.NewReader(in), ReadLimits{MaxEdges: 4}); err != nil {
		t.Fatalf("4 edges against MaxEdges=4 rejected: %v", err)
	}
	_, _, err := ReadEdgeListLimit(strings.NewReader(in), ReadLimits{MaxEdges: 3})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
	if !strings.Contains(err.Error(), "more than 3 edges") {
		t.Fatalf("error %q should name the edge bound", err)
	}
}

func TestReadEdgeListLimitMaxNodes(t *testing.T) {
	// A star 0–1, 0–2, ... introduces one new node per line.
	var sb strings.Builder
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&sb, "0 %d\n", i)
	}
	if _, _, err := ReadEdgeListLimit(strings.NewReader(sb.String()), ReadLimits{MaxNodes: 11}); err != nil {
		t.Fatalf("11 nodes against MaxNodes=11 rejected: %v", err)
	}
	_, _, err := ReadEdgeListLimit(strings.NewReader(sb.String()), ReadLimits{MaxNodes: 5})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("got %v, want ErrLimit", err)
	}
}

func TestReadEdgeListZeroLimitsUnbounded(t *testing.T) {
	var sb strings.Builder
	for i := 1; i <= 500; i++ {
		fmt.Fprintf(&sb, "0 %d\n", i)
	}
	g, _, err := ReadEdgeListLimit(strings.NewReader(sb.String()), ReadLimits{})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 501 || g.M() != 500 {
		t.Fatalf("got n=%d m=%d, want 501/500", g.N(), g.M())
	}
}
