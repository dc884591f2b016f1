package dk

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/subgraphs"
)

func build(t *testing.T, n int, edges [][2]int) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// paw returns the worked example from Section 3 of the paper: a triangle
// {0,1,2} with pendant node 3 attached to node 2.
func paw(t *testing.T) *graph.CSR {
	return build(t, 4, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
}

func randomGraph(rng *rand.Rand, n, m int) *graph.CSR {
	g := graph.NewCSR(n)
	for g.M() < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		if err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	return g
}

func TestExtractPaperExample(t *testing.T) {
	g := paw(t)
	p, err := Extract(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 4 || p.M != 4 {
		t.Fatalf("N=%d M=%d, want 4,4", p.N, p.M)
	}
	if p.AvgDegree != 2 {
		t.Errorf("AvgDegree = %v, want 2", p.AvgDegree)
	}
	// 1K: one degree-1 node, two degree-2 nodes, one degree-3 node.
	for k, want := range map[int]int{1: 1, 2: 2, 3: 1} {
		if got := p.Degrees.Count[k]; got != want {
			t.Errorf("n(%d) = %d, want %d", k, got, want)
		}
	}
	// 2K: the paper's P(2,3)=2 plus P(2,2)=1 and P(1,3)=1.
	for pr, want := range map[DegPair]int{{2, 3}: 2, {2, 2}: 1, {1, 3}: 1} {
		if got := p.Joint.Count[pr]; got != want {
			t.Errorf("m(%d,%d) = %d, want %d", pr.K1, pr.K2, got, want)
		}
	}
	// 3K: two (1,3,2) wedges and one (2,2,3) triangle.
	if got := p.Census.Wedge(subgraphs.WedgeKey{KLo: 1, KCenter: 3, KHi: 2}); got != 2 {
		t.Errorf("wedges(1,3,2) = %d, want 2", got)
	}
	if got := p.Census.Triangle(subgraphs.TriangleKey{K1: 2, K2: 2, K3: 3}); got != 1 {
		t.Errorf("triangles(2,2,3) = %d, want 1", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExtractDepthValidation(t *testing.T) {
	g := paw(t)
	if _, err := Extract(g, -1); err == nil {
		t.Error("depth -1 accepted")
	}
	if _, err := Extract(g, 4); err == nil {
		t.Error("depth 4 accepted")
	}
}

func TestExtractShallowDepths(t *testing.T) {
	g := paw(t)
	p0, err := Extract(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Degrees != nil || p0.Joint != nil || p0.Census != nil {
		t.Error("depth-0 profile has deeper fields populated")
	}
	p1, err := Extract(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Degrees == nil || p1.Joint != nil {
		t.Error("depth-1 profile fields wrong")
	}
}

func TestValidateInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := randomGraph(rng, n, m)
		p, err := Extract(g, 3)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestJDDDegreeDistErrors(t *testing.T) {
	j := NewJDD()
	j.Add(3, 2, 1) // one 3-endpoint: not divisible by 3
	if _, err := j.DegreeDist(); err == nil {
		t.Error("inconsistent JDD accepted")
	}
	j2 := NewJDD()
	j2.Add(0, 2, 1)
	if _, err := j2.DegreeDist(); err == nil {
		t.Error("degree-0 JDD accepted")
	}
}

func TestJDDP(t *testing.T) {
	g := paw(t)
	p, _ := Extract(g, 2)
	// P(k1,k2) sums to 1 over canonical pairs with the µ weighting folded:
	// Σ_{k1<=k2} m·µ/(2m) = Σ m(k1,k2)/(2M)·µ; for the paw:
	// (1·2 + 2·1 + 1·1 + ... ) — just verify a couple of point values.
	if got := p.Joint.P(2, 3); math.Abs(got-2.0/8.0) > 1e-12 {
		t.Errorf("P(2,3) = %v, want 0.25", got)
	}
	if got := p.Joint.P(2, 2); math.Abs(got-2.0/8.0) > 1e-12 {
		t.Errorf("P(2,2) = %v, want 0.25 (µ=2)", got)
	}
	if got := p.Joint.P(9, 9); got != 0 {
		t.Errorf("P(9,9) = %v, want 0", got)
	}
}

func TestRestrict(t *testing.T) {
	g := paw(t)
	p, _ := Extract(g, 3)
	q, err := p.Restrict(1)
	if err != nil {
		t.Fatal(err)
	}
	if q.D != 1 || q.Joint != nil || q.Census != nil {
		t.Error("restricted profile retains deep fields")
	}
	if q.Degrees.N != p.Degrees.N {
		t.Error("restricted degree dist differs")
	}
	if _, err := p.Restrict(4); err == nil {
		t.Error("restrict beyond extracted depth accepted")
	}
	// Mutating the restriction must not affect the original.
	q.Degrees.Count[1] = 99
	if p.Degrees.Count[1] == 99 {
		t.Error("Restrict shares state with original")
	}
}

func TestDistancesZeroAndPositive(t *testing.T) {
	g := paw(t)
	h := build(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}}) // path
	pg, _ := Extract(g, 3)
	ph, _ := Extract(h, 3)
	for d := 0; d <= 3; d++ {
		same, err := Distance(pg, pg, d)
		if err != nil {
			t.Fatal(err)
		}
		if same != 0 {
			t.Errorf("D%d(g,g) = %v, want 0", d, same)
		}
		diff, err := Distance(pg, ph, d)
		if err != nil {
			t.Fatal(err)
		}
		if diff <= 0 {
			t.Errorf("D%d(paw,path) = %v, want > 0", d, diff)
		}
	}
	if _, err := Distance(pg, ph, 4); err == nil {
		t.Error("distance depth 4 accepted")
	}
	shallow, _ := Extract(g, 1)
	if _, err := Distance(shallow, ph, 2); err == nil {
		t.Error("distance beyond extraction depth accepted")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		g1 := randomGraph(rng, n, rng.Intn(n*(n-1)/2+1))
		g2 := randomGraph(rng, n, rng.Intn(n*(n-1)/2+1))
		p1, _ := Extract(g1, 3)
		p2, _ := Extract(g2, 3)
		for d := 0; d <= 3; d++ {
			a, _ := Distance(p1, p2, d)
			b, _ := Distance(p2, p1, d)
			if math.Abs(a-b) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGraphicalKnownCases(t *testing.T) {
	cases := []struct {
		seq  []int
		want bool
	}{
		{[]int{}, true},
		{[]int{0}, true},
		{[]int{1, 1}, true},
		{[]int{1}, false},             // odd sum
		{[]int{3, 3, 3, 3}, true},     // K4
		{[]int{4, 1, 1, 1, 1}, true},  // star
		{[]int{5, 1, 1, 1, 1}, false}, // degree >= n
		{[]int{3, 3, 1, 1}, false},    // Erdős–Gallai violation
		{[]int{2, 2, 2}, true},        // triangle
		{[]int{-1, 1}, false},
		{[]int{3, 2, 2, 2, 1}, true},
	}
	for _, tc := range cases {
		if got := Graphical(tc.seq); got != tc.want {
			t.Errorf("Graphical(%v) = %v, want %v", tc.seq, got, tc.want)
		}
	}
}

func TestGraphicalMatchesRealGraphsProperty(t *testing.T) {
	// Degree sequences extracted from actual graphs are always graphical.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, rng.Intn(n*(n-1)/2+1))
		return Graphical(g.DegreeSequence())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRescale1K(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 60, 150)
	p, _ := Extract(g, 1)
	for _, newN := range []int{10, 60, 200, 999} {
		r, err := Rescale1K(p.Degrees, newN)
		if err != nil {
			t.Fatal(err)
		}
		if r.N != newN {
			t.Errorf("rescaled N = %d, want %d", r.N, newN)
		}
		total := 0
		for _, c := range r.Count {
			total += c
		}
		if total != newN {
			t.Errorf("Σ n(k) = %d, want %d", total, newN)
		}
		if r.TotalDegree()%2 != 0 {
			t.Errorf("rescaled total degree odd at newN=%d", newN)
		}
		// Shape preserved: average degree within 25% at reasonable sizes.
		if newN >= 60 {
			if math.Abs(r.AvgDegree()-p.Degrees.AvgDegree()) > 0.25*p.Degrees.AvgDegree() {
				t.Errorf("avg degree drifted: %v vs %v", r.AvgDegree(), p.Degrees.AvgDegree())
			}
		}
	}
	if _, err := Rescale1K(p.Degrees, 0); err == nil {
		t.Error("rescale to 0 accepted")
	}
}

func TestRescale2K(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(11)), 50, 120)
	p, _ := Extract(g, 2)
	for _, newN := range []int{25, 50, 150} {
		r, err := Rescale2K(p.Joint, newN)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := r.DegreeDist()
		if err != nil {
			t.Fatalf("rescaled JDD inconsistent at newN=%d: %v", newN, err)
		}
		if dd.N < newN/2 || dd.N > newN*2 {
			t.Errorf("implied N = %d, want near %d", dd.N, newN)
		}
	}
	if _, err := Rescale2K(p.Joint, -3); err == nil {
		t.Error("rescale to negative accepted")
	}
}

func TestRescale2KPropertyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		g := randomGraph(rng, n, n+rng.Intn(2*n))
		p, _ := Extract(g, 2)
		newN := 5 + rng.Intn(300)
		r, err := Rescale2K(p.Joint, newN)
		if err != nil {
			return false
		}
		_, err = r.DegreeDist()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDegreeDistSequenceRoundTrip(t *testing.T) {
	dd := NewDegreeDist([]int{3, 1, 2, 2, 1, 3, 3})
	seq := dd.Sequence()
	if len(seq) != 7 {
		t.Fatalf("sequence len %d", len(seq))
	}
	for i := 1; i < len(seq); i++ {
		if seq[i-1] < seq[i] {
			t.Fatal("sequence not descending")
		}
	}
	if dd2 := NewDegreeDist(seq); dd2.Count[3] != 3 || dd2.Count[2] != 2 || dd2.Count[1] != 2 {
		t.Errorf("round trip mismatch: %v", dd2.Count)
	}
	if dd.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d", dd.MaxDegree())
	}
}
