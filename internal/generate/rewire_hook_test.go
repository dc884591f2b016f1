package generate

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/metrics"
)

// TestRunSweepHook pins Rewirer.OnSweep on objective-free depth-2 Run,
// which draws blocks of attempts ahead of their checks: the hook fires
// at every multiple of ProgressEvery and nowhere else, a hook that never
// stops leaves the run exactly as no hook does, and a hook that stops
// ends the run at that attempt with StopHook, as a Step loop with that
// budget would. When the run stops by itself at an attempt, the hook is
// not called there.
func TestRunSweepHook(t *testing.T) {
	g := connectedRandom(newRng(21), 200, 400)
	side := func() *Rewirer {
		r, err := NewRewirer(g.Clone(), 2, newRng(5))
		if err != nil {
			t.Fatal(err)
		}
		r.RecordMoves = true
		return r
	}
	const every = 37
	multiples := func(upTo int) []int {
		var out []int
		for a := every; a <= upTo; a += every {
			out = append(out, a)
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		stopAt    int // the hook call that stops the run; 0 never stops
		budget    int
		wantCalls []int
		wantStop  StopReason
	}{
		{name: "never", budget: 1000, wantCalls: multiples(1000), wantStop: StopMaxAttempts},
		{name: "never-budget-on-boundary", budget: 20 * every, wantCalls: multiples(20 * every), wantStop: StopMaxAttempts},
		{name: "stop-5th", stopAt: 5, budget: 1000, wantCalls: multiples(5 * every), wantStop: StopHook},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, step := side(), side()
			run.ProgressEvery = every
			var calls []int
			run.OnSweep = func(r *Rewirer) bool {
				calls = append(calls, r.Stats.Attempts)
				return len(calls) == tc.stopAt
			}
			if _, err := run.Run(0, tc.budget, 0); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(calls, tc.wantCalls) {
				t.Fatalf("hook called at attempts %v, want %v", calls, tc.wantCalls)
			}
			if run.stop != tc.wantStop {
				t.Fatalf("stop = %v, want %v", run.stop, tc.wantStop)
			}
			stepRun(t, step, 0, run.Stats.Attempts, 0, 0)
			compareRunStep(t, run, step)
		})
	}

	// Patience that runs out on a boundary attempt stops the run there
	// without a hook call: with ProgressEvery 1, every attempt but the
	// last calls the hook.
	r, err := NewRewirer(connectedRandom(newRng(3), 30, 150), 2, newRng(42))
	if err != nil {
		t.Fatal(err)
	}
	r.ProgressEvery = 1
	calls := 0
	r.OnSweep = func(*Rewirer) bool { calls++; return false }
	st, err := r.Run(0, 100000, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.stop != StopPatience || calls != st.Attempts-1 {
		t.Fatalf("patience run: stop %v after %d attempts with %d hook calls, want patience and %d calls", r.stop, st.Attempts, calls, st.Attempts-1)
	}
}

// TestExploreSweepHook runs clustering exploration through Explore with
// a hook: the hook fires once per M attempts, it sees G's neighbor
// windows current, so C̄ from the objective's running triangle counts
// equals a recount of G bit for bit, and a hook that never stops leaves
// the result exactly as no hook does.
func TestExploreSweepHook(t *testing.T) {
	g := powerLawGraph(t, newRng(8), 600)
	opt := ExploreOptions{Maximize: true, MaxAttempts: 12 * g.M(), Patience: -1}
	opt.Rng = newRng(9)
	plain, err := Explore(g, MetricClustering, opt)
	if err != nil {
		t.Fatal(err)
	}
	var calls []int
	opt.Rng = newRng(9)
	opt.OnSweep = func(r *Rewirer) bool {
		calls = append(calls, r.Stats.Attempts)
		obj := r.Obj.(*ClusteringObjective)
		if got, want := metrics.MeanClusteringFrom(r.G, obj.Triangles()), metrics.MeanClustering(r.G); got != want {
			t.Fatalf("at %d attempts: C̄ from running counts %v, recount %v", r.Stats.Attempts, got, want)
		}
		return false
	}
	hooked, err := Explore(g, MetricClustering, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 12 || calls[0] != g.M() || calls[11] != 12*g.M() {
		t.Fatalf("hook called at attempts %v, want every %d up to %d", calls, g.M(), 12*g.M())
	}
	if hooked.Stats != plain.Stats || !reflect.DeepEqual(hooked.FinalGraph.Edges(), plain.FinalGraph.Edges()) {
		t.Fatal("a hook that never stops changed the exploration")
	}
	if plain.Stats.Accepted == 0 {
		t.Fatal("no move accepted; the comparison is vacuous")
	}
}
