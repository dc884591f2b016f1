package generate

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// rewireState is what a rewiring run leaves observable: the edge list in
// EdgeAt order, every neighbor window, the stats and the move log.
type rewireState struct {
	edges   []graph.Edge
	windows [][]int32
	stats   RewireStats
	moves   []Move
}

func stateOf(r *Rewirer) rewireState {
	s := rewireState{edges: r.G.Edges(), stats: r.Stats, moves: r.AcceptedMoves()}
	for u := 0; u < r.G.N(); u++ {
		s.windows = append(s.windows, append([]int32(nil), r.G.Neighbors(u)...))
	}
	return s
}

// TestRunMatchesStep pins objective-free depth-2 Run, which applies its
// swaps to the graph once on return, against a loop of Step, which
// applies each swap as it is accepted: with the same graph and seed, a
// Run and a Step loop of the same attempt count must leave the same
// EdgeAt order, neighbor windows, stats and accepted moves. Runs stop on
// the acceptance target, on the attempt budget and on patience; one
// continues with Steps after its Run, and one preserves connectivity,
// which keeps the graph current through every swap.
func TestRunMatchesStep(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		g                            *graph.CSR
		want, budget, patience, more int
		connected                    bool
		stop                         func(RewireStats) bool
	}{
		{name: "want", g: connectedRandom(newRng(1), 120, 200), want: 150, budget: 100000,
			stop: func(st RewireStats) bool { return st.Accepted == 150 }},
		{name: "budget", g: connectedRandom(newRng(2), 120, 200), budget: 700,
			stop: func(st RewireStats) bool { return st.Attempts == 700 }},
		{name: "patience", g: connectedRandom(newRng(3), 30, 150), budget: 100000, patience: 20,
			stop: func(st RewireStats) bool { return st.Attempts < 100000 }},
		{name: "step-after-run", g: connectedRandom(newRng(4), 120, 200), want: 80, budget: 100000, more: 400,
			stop: func(st RewireStats) bool { return st.Accepted >= 80 }},
		{name: "connected", g: connectedRandom(newRng(5), 120, 20), budget: 3000, connected: true,
			stop: func(st RewireStats) bool { return st.Rejected.Disconnected > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newSide := func() *Rewirer {
				r, err := NewRewirer(tc.g.Clone(), 2, newRng(42))
				if err != nil {
					t.Fatal(err)
				}
				r.RecordMoves = true
				r.PreserveConnectivity = tc.connected
				return r
			}
			run, step := newSide(), newSide()
			start := run.G.Edges()
			run.ProgressEvery = 1
			run.OnProgress = func(RewireProgress) {
				// A deferring run leaves G alone until it returns.
				if !tc.connected && !reflect.DeepEqual(run.G.Edges(), start) {
					t.Fatal("G changed inside a deferring Run")
				}
			}
			if _, err := run.Run(tc.want, tc.budget, tc.patience); err != nil {
				t.Fatal(err)
			}
			if !tc.stop(run.Stats) {
				t.Fatalf("run did not stop as the case intends: %+v", run.Stats)
			}
			if run.Stats.Accepted == 0 {
				t.Fatal("no swap accepted; the comparison is vacuous")
			}
			for i := 0; i < tc.more; i++ {
				if _, err := run.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for step.Stats.Attempts < run.Stats.Attempts {
				if _, err := step.Step(); err != nil {
					t.Fatal(err)
				}
			}
			got, want := stateOf(run), stateOf(step)
			if !reflect.DeepEqual(got.edges, want.edges) {
				t.Fatal("EdgeAt order differs between Run and Step")
			}
			if !reflect.DeepEqual(got.windows, want.windows) {
				t.Fatal("neighbor windows differ between Run and Step")
			}
			if got.stats != want.stats {
				t.Fatalf("stats differ: Run %+v, Step %+v", got.stats, want.stats)
			}
			if !reflect.DeepEqual(got.moves, want.moves) {
				t.Fatal("accepted moves differ between Run and Step")
			}
		})
	}
}
