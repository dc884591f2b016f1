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

// stepRun is Run's stopping and sampling rule driven one Step at a
// time, so each attempt draws only its own ends: the reference a Run,
// which draws a block of attempts ahead of their checks, must match.
// every > 0 samples as OnProgress with that ProgressEvery would; it
// returns the samples.
func stepRun(tb testing.TB, r *Rewirer, want, budget, patience, every int) []RewireProgress {
	tb.Helper()
	var samples []RewireProgress
	last := r.Stats
	emit := func() {
		cur := r.Stats
		p := RewireProgress{
			Sweep:          len(samples) + 1,
			Attempts:       cur.Attempts,
			Accepted:       cur.Accepted,
			WindowAttempts: cur.Attempts - last.Attempts,
			WindowAccepted: cur.Accepted - last.Accepted,
			Rejected:       cur.Rejected.sub(last.Rejected),
		}
		if p.WindowAttempts > 0 {
			p.AcceptanceRate = float64(p.WindowAccepted) / float64(p.WindowAttempts)
		}
		last = cur
		samples = append(samples, p)
	}
	accepted, sinceAccept := 0, 0
	for attempts := 0; attempts < budget; attempts++ {
		ok, err := r.Step()
		if err != nil {
			tb.Fatal(err)
		}
		if every > 0 && r.Stats.Attempts-last.Attempts >= every {
			emit()
		}
		if ok {
			accepted++
			sinceAccept = 0
			if want > 0 && accepted >= want {
				break
			}
		} else {
			sinceAccept++
			if patience > 0 && sinceAccept >= patience {
				break
			}
		}
	}
	if every > 0 && r.Stats.Attempts > last.Attempts {
		emit()
	}
	return samples
}

// compareRunStep fails unless run and step left the same EdgeAt order,
// neighbor windows, stats and accepted moves, and their random sources
// give the same next value: a Run that drew past its stopping point
// would leave its source ahead.
func compareRunStep(tb testing.TB, run, step *Rewirer) {
	tb.Helper()
	got, want := stateOf(run), stateOf(step)
	if !reflect.DeepEqual(got.edges, want.edges) {
		tb.Fatal("EdgeAt order differs between Run and Step")
	}
	if !reflect.DeepEqual(got.windows, want.windows) {
		tb.Fatal("neighbor windows differ between Run and Step")
	}
	if got.stats != want.stats {
		tb.Fatalf("stats differ: Run %+v, Step %+v", got.stats, want.stats)
	}
	if !reflect.DeepEqual(got.moves, want.moves) {
		tb.Fatal("accepted moves differ between Run and Step")
	}
	if a, b := run.Rng.Int63(), step.Rng.Int63(); a != b {
		tb.Fatalf("random source after Run gives %d, after Steps %d", a, b)
	}
}

// TestRunMatchesStep pins objective-free depth-2 Run, which draws a
// block of attempts ahead of their checks and applies its swaps to the
// graph once on return, against stepRun, which draws, checks and
// applies one attempt at a time: with the same graph and seed they must
// leave the same EdgeAt order, neighbor windows, stats, accepted moves,
// progress samples and random-source state. Runs stop on the acceptance
// target, on the attempt budget and on patience, including at counts
// inside a full block; one continues with Steps after its Run; two
// preserve connectivity, which keeps the graph current through every
// swap. every is Run's ProgressEvery (0 means 1, negative sets no
// OnProgress); sampling every attempt limits blocks to one attempt, so
// the cases that test blocks sample rarely or not at all.
func TestRunMatchesStep(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		g                            *graph.CSR
		want, budget, patience, more int
		every                        int
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
		{name: "want-in-block", g: connectedRandom(newRng(6), 200, 400), want: 1001, budget: 100000, every: -1,
			stop: func(st RewireStats) bool { return st.Accepted == 1001 }},
		{name: "budget-in-block", g: connectedRandom(newRng(7), 200, 400), budget: 1001, every: -1,
			stop: func(st RewireStats) bool { return st.Attempts == 1001 }},
		{name: "patience-in-block", g: connectedRandom(newRng(8), 24, 180), budget: 100000, patience: 70, every: -1,
			stop: func(st RewireStats) bool { return st.Attempts < 100000 }},
		{name: "step-after-block", g: connectedRandom(newRng(9), 200, 400), want: 333, budget: 100000, more: 101, every: -1,
			stop: func(st RewireStats) bool { return st.Accepted >= 333 }},
		{name: "progress-7", g: connectedRandom(newRng(10), 200, 400), want: 500, budget: 100000, every: 7,
			stop: func(st RewireStats) bool { return st.Accepted == 500 }},
		{name: "progress-100", g: connectedRandom(newRng(11), 200, 400), budget: 1234, every: 100,
			stop: func(st RewireStats) bool { return st.Attempts == 1234 }},
		{name: "connected-block", g: connectedRandom(newRng(12), 120, 20), budget: 3001, connected: true, every: -1,
			stop: func(st RewireStats) bool { return st.Attempts == 3001 && st.Rejected.Disconnected > 0 }},
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
			every := 0
			var samples []RewireProgress
			if tc.every >= 0 {
				every = max(tc.every, 1)
				run.ProgressEvery = every
				run.OnProgress = func(p RewireProgress) {
					samples = append(samples, p)
					// A deferring run leaves G alone until it returns.
					if !tc.connected && !reflect.DeepEqual(run.G.Edges(), start) {
						t.Fatal("G changed inside a deferring Run")
					}
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
			wantSamples := stepRun(t, step, tc.want, tc.budget, tc.patience, every)
			if !reflect.DeepEqual(samples, wantSamples) {
				t.Fatalf("progress samples differ: Run %d, Steps %d", len(samples), len(wantSamples))
			}
			for i := 0; i < tc.more; i++ {
				if _, err := run.Step(); err != nil {
					t.Fatal(err)
				}
				if _, err := step.Step(); err != nil {
					t.Fatal(err)
				}
			}
			compareRunStep(t, run, step)
		})
	}
}
