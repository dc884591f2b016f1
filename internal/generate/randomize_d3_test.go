package generate_test

import (
	"testing"

	"repro/internal/datasets"
	"repro/internal/generate"
	"repro/internal/subgraphs"
)

// TestRandomizeD3ReachesSwapTarget checks that depth-3 Randomize makes
// its full SwapFactor·M accepted swaps, the paper's 10·M convention,
// rather than stopping at the 40·SwapFactor·M attempt budget with fewer:
// on TestRandomizeGolden's Skitter N=300 input and on the paper-scale
// Skitter graph (9204 nodes), where a proposer that drew JDD mismatches
// for most of its attempts ran out of budget first. The replica must
// keep the input's wedge/triangle census.
func TestRandomizeD3ReachesSwapTarget(t *testing.T) {
	inputs := []struct {
		name string
		cfg  datasets.SkitterConfig
		long bool
	}{
		{"golden", datasets.SkitterConfig{N: 300, Seed: 3}, false},
		{"paper-scale", datasets.PaperScaleSkitter(2), true},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			if in.long && testing.Short() {
				t.Skip("paper-scale depth-3 rewiring takes about a second")
			}
			src, err := datasets.Skitter(in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			g, st, err := generate.Randomize(src, 3, generate.RandomizeOptions{Rng: goldenRng(43)})
			if err != nil {
				t.Fatal(err)
			}
			if want := 10 * src.M(); st.Accepted != want {
				t.Fatalf("accepted %d of SwapFactor·M = %d swaps in %d attempts: %+v", st.Accepted, want, st.Attempts, st.Rejected)
			}
			if !subgraphs.Count(g).Equal(subgraphs.Count(src)) {
				t.Fatal("depth-3 Randomize changed the wedge/triangle census")
			}
			t.Logf("n=%d m=%d: %d swaps in %d attempts", src.N(), src.M(), st.Accepted, st.Attempts)
		})
	}
}
