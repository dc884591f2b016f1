package generate

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// mustComplete builds the complete graph on n nodes.
func complete(t *testing.T, n int) *graph.CSR {
	t.Helper()
	g := graph.NewCSR(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func checkInvariant(t *testing.T, name string, st RewireStats) {
	t.Helper()
	if got, want := st.Attempts, st.Accepted+st.Rejected.Total(); got != want {
		t.Fatalf("%s: attempts %d != accepted %d + rejected %d", name, got, st.Accepted, st.Rejected.Total())
	}
}

// TestRewireStatsBreakdown drives the Rewirer through graphs engineered
// to trip each rejection reason and asserts the breakdown attributes
// them correctly — the diagnosability contract behind dkgen -v.
func TestRewireStatsBreakdown(t *testing.T) {
	t.Run("complete-graph-structural", func(t *testing.T) {
		// K5: every double-edge swap either shares an endpoint or wants an
		// edge that already exists; nothing else can happen.
		r, err := NewRewirer(complete(t, 5), 1, newRng(3))
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Run(0, 400, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, "K5", st)
		if st.Accepted != 0 {
			t.Fatalf("K5 accepted %d swaps; want 0", st.Accepted)
		}
		if st.Rejected.SelfLoop == 0 || st.Rejected.DuplicateEdge == 0 {
			t.Fatalf("K5 breakdown missing structural reasons: %+v", st.Rejected)
		}
		if st.Rejected.SelfLoop+st.Rejected.DuplicateEdge != st.Attempts {
			t.Fatalf("K5: reasons beyond self-loop/duplicate: %+v", st.Rejected)
		}
	})

	t.Run("star-self-loops", func(t *testing.T) {
		// K1,6: every edge contains the hub, so every edge pair shares it.
		g := graph.NewCSR(7)
		for leaf := 1; leaf < 7; leaf++ {
			if err := g.AddEdge(0, leaf); err != nil {
				t.Fatal(err)
			}
		}
		r, err := NewRewirer(g, 1, newRng(5))
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Run(0, 200, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, "star", st)
		if st.Rejected.SelfLoop != st.Attempts {
			t.Fatalf("star: want all %d attempts rejected as self-loops, got %+v", st.Attempts, st.Rejected)
		}
	})

	t.Run("jdd-mismatch", func(t *testing.T) {
		// Heterogeneous degrees make most depth-2 proposals fail the
		// dv = dy or du = dx condition. Only objective-driven depth-2 runs
		// propose through that test; objective-free ones draw JDD-preserving
		// swaps from the end index and must never count a mismatch.
		g := connectedRandom(newRng(8), 30, 25)
		r, err := NewRewirer(g.Clone(), 2, newRng(9))
		if err != nil {
			t.Fatal(err)
		}
		r.Obj = zeroObjective{}
		st, err := r.Run(0, 2000, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, "jdd", st)
		if st.Rejected.JDDMismatch == 0 {
			t.Fatalf("depth-2 run on heterogeneous graph saw no JDD rejections: %+v", st.Rejected)
		}

		free, err := NewRewirer(g, 2, newRng(9))
		if err != nil {
			t.Fatal(err)
		}
		st, err = free.Run(0, 2000, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, "jdd objective-free", st)
		if st.Rejected.JDDMismatch != 0 || st.Accepted == 0 {
			t.Fatalf("objective-free depth-2 run: accepted %d, rejected %+v; want accepted moves and no JDD rejections",
				st.Accepted, st.Rejected)
		}
	})

	t.Run("census-changed", func(t *testing.T) {
		g := connectedRandom(newRng(12), 30, 25)
		r, err := NewRewirer(g, 3, newRng(13))
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Run(0, 3000, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, "census", st)
		if st.Rejected.CensusChanged == 0 {
			t.Fatalf("depth-3 run saw no census rejections: %+v", st.Rejected)
		}
	})

	t.Run("objective-rejected", func(t *testing.T) {
		g := connectedRandom(newRng(20), 24, 30)
		r, err := NewRewirer(g, 1, newRng(21))
		if err != nil {
			t.Fatal(err)
		}
		obj := &LikelihoodObjective{}
		if err := obj.Init(g); err != nil {
			t.Fatal(err)
		}
		r.Obj = obj
		r.Accept = func(_ *rand.Rand, _ float64) bool { return false }
		st, err := r.Run(0, 500, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkInvariant(t, "objective", st)
		if st.Rejected.Objective == 0 {
			t.Fatal("always-reject policy produced no objective rejections")
		}
		if st.Reverted != st.Rejected.Objective {
			t.Fatalf("reverted %d != objective-rejected %d", st.Reverted, st.Rejected.Objective)
		}
		if st.Accepted != 0 {
			t.Fatalf("always-reject policy accepted %d moves", st.Accepted)
		}
	})

	t.Run("disconnected", func(t *testing.T) {
		// C12: some swaps split the cycle into two smaller cycles; with
		// connectivity preservation those must be counted and reverted.
		// Depth 2 reverts through the in-place swap.
		for _, depth := range []int{1, 2} {
			g := graph.NewCSR(12)
			for i := 0; i < 12; i++ {
				if err := g.AddEdge(i, (i+1)%12); err != nil {
					t.Fatal(err)
				}
			}
			r, err := NewRewirer(g, depth, newRng(30))
			if err != nil {
				t.Fatal(err)
			}
			r.PreserveConnectivity = true
			st, err := r.Run(0, 600, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariant(t, "cycle", st)
			if st.Rejected.Disconnected == 0 {
				t.Fatalf("d=%d cycle run saw no connectivity rejections: %+v", depth, st.Rejected)
			}
			if !graph.IsConnected(g.Static()) {
				t.Fatalf("d=%d: PreserveConnectivity left a disconnected graph", depth)
			}
		}
	})
}
