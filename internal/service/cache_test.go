package service

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func mustParse(t *testing.T, s string) (*graph.CSR, []int) {
	t.Helper()
	g, labels, err := graph.ReadEdgeList(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return g, labels
}

func TestCanonicalHashInvariance(t *testing.T) {
	// The same edge set in different byte forms: line order, pair
	// orientation, whitespace, comments.
	forms := []string{
		"0 1\n1 2\n0 2\n2 3\n",
		"2 3\n0 2\n1 2\n0 1\n",
		"3 2\n2 0\n2 1\n1 0\n",
		"# c\n0   1\n\n1 2\n0 2\n2 3\n",
	}
	var h0 Hash
	for i, f := range forms {
		g, labels := mustParse(t, f)
		h := CanonicalHash(g, labels)
		if i == 0 {
			h0 = h
			continue
		}
		if h != h0 {
			t.Fatalf("form %d hashed to %s, form 0 to %s", i, h, h0)
		}
	}
	// A different graph hashes differently.
	g, labels := mustParse(t, "0 1\n1 2\n0 2\n1 3\n")
	if CanonicalHash(g, labels) == h0 {
		t.Fatal("distinct edge sets collided")
	}
	// Labels matter: the same dense structure under different labels is
	// a different upload.
	g2, labels2 := mustParse(t, "10 11\n11 12\n10 12\n12 13\n")
	if CanonicalHash(g2, labels2) == h0 {
		t.Fatal("relabeled graph should hash differently (labels are content)")
	}
}

func TestCacheInternAndLRU(t *testing.T) {
	c := NewCache(2)
	g1, l1 := mustParse(t, "0 1\n")
	g2, l2 := mustParse(t, "0 1\n1 2\n")
	g3, l3 := mustParse(t, "0 1\n1 2\n2 3\n")

	e1, existed := c.Intern(g1, l1)
	if existed {
		t.Fatal("fresh intern reported existing")
	}
	if e, existed := c.Intern(g1.Clone(), l1); !existed || e != e1 {
		t.Fatal("re-intern of the same content did not return the same entry")
	}
	c.Intern(g2, l2)
	// Touch e1 so g2 is the LRU victim when g3 arrives.
	if c.Get(e1.Hash()) == nil {
		t.Fatal("Get lost e1")
	}
	c.Intern(g3, l3)

	if c.Get(e1.Hash()) == nil {
		t.Fatal("recently used entry evicted")
	}
	if c.Get(CanonicalHash(g2, l2)) != nil {
		t.Fatal("LRU victim still present")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction", st)
	}
}

func TestEntryProfileDepthReuse(t *testing.T) {
	c := NewCache(4)
	g, l := mustParse(t, "0 1\n1 2\n0 2\n2 3\n")
	e, _ := c.Intern(g, l)

	p2, hit, err := e.Profile(2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first extraction reported as hit")
	}
	if p2.D != 2 {
		t.Fatalf("depth %d, want 2", p2.D)
	}
	// Shallower request: served by restriction, counted as hit.
	p1, hit, err := e.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || p1.D != 1 {
		t.Fatalf("restricted profile: hit=%v d=%d, want true/1", hit, p1.D)
	}
	// Deeper request: re-extracts once, then hits.
	if _, hit, _ := e.Profile(3); hit {
		t.Fatal("deeper profile cannot be a hit")
	}
	if _, hit, _ := e.Profile(3); !hit {
		t.Fatal("repeated depth-3 profile missed")
	}
}

func TestEntrySummaryMemoized(t *testing.T) {
	c := NewCache(4)
	g, l := mustParse(t, "0 1\n1 2\n0 2\n2 3\n")
	e, _ := c.Intern(g, l)

	s1, hit, err := e.Summary(false, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first summary reported as hit")
	}
	s2, hit, err := e.Summary(false, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || s1 != s2 {
		t.Fatalf("repeat summary: hit=%v equal=%v", hit, s1 == s2)
	}
	// A different configuration is a separate computation.
	if _, hit, _ := e.Summary(true, 0, 1); hit {
		t.Fatal("spectral summary served from non-spectral cache slot")
	}
}
