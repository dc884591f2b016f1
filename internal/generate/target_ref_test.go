package generate

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
)

// targetStepLoop is the retired TargetRewire: its own Step loop beside
// Run's, with the zero stop, the patience count and the stop reason
// kept in the loop. It is the reference the one-Run TargetRewire must
// reproduce.
func targetStepLoop(g *graph.CSR, target *dk.Profile, d int, opt TargetOptions) (*TargetResult, error) {
	var obj targetObjective
	switch d {
	case 1:
		obj = NewDegreeDistObjective(target.Degrees)
	case 2:
		obj = NewJDDObjective(target.Joint)
	case 3:
		obj = NewCensusObjective(target.Census)
	}
	out := g.Clone()
	r, err := NewRewirer(out, d-1, opt.Rng)
	if err != nil {
		return nil, err
	}
	if err := obj.Init(out); err != nil {
		return nil, err
	}
	r.Obj = obj
	r.Accept = PolicyMetropolis(opt.Temperature)
	maxAttempts := opt.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 200 * g.M()
	}
	patience := opt.Patience
	if patience == 0 {
		patience = 20 * g.M()
	}
	res := &TargetResult{InitialD: obj.Current(), FinalGraph: out, Stop: StopMaxAttempts}
	if opt.StopAtZero && res.InitialD == 0 {
		maxAttempts, res.Stop = 0, StopZero
	}
	sinceAccept := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		ok, err := r.Step()
		if err != nil {
			return nil, err
		}
		if ok {
			sinceAccept = 0
			if opt.StopAtZero && res.InitialD+r.objSum == 0 {
				res.Stop = StopZero
				break
			}
		} else {
			sinceAccept++
			if sinceAccept >= patience {
				res.Stop = StopPatience
				break
			}
		}
	}
	r.sync()
	res.Stats = r.Stats
	res.FinalD = obj.Current()
	return res, nil
}

// checkTargetMatchesStepLoop runs TargetRewire and targetStepLoop from
// the same seed and requires the same stop reason, stats, distances,
// EdgeAt order, neighbor windows and next value of the random source.
// It returns the reference's result.
func checkTargetMatchesStepLoop(t *testing.T, name string, g *graph.CSR, p *dk.Profile, d int, opt TargetOptions, seed int64) *TargetResult {
	t.Helper()
	gotRng, refRng := newRng(seed), newRng(seed)
	opt.Rng = gotRng
	got, err := TargetRewire(g, p, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Rng = refRng
	ref, err := targetStepLoop(g, p, d, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stop != ref.Stop || got.Stats != ref.Stats || got.InitialD != ref.InitialD || got.FinalD != ref.FinalD {
		t.Fatalf("%s: stop %v stats %+v D %v→%v; reference stop %v stats %+v D %v→%v", name,
			got.Stop, got.Stats, got.InitialD, got.FinalD, ref.Stop, ref.Stats, ref.InitialD, ref.FinalD)
	}
	if !reflect.DeepEqual(got.FinalGraph.Edges(), ref.FinalGraph.Edges()) {
		t.Fatalf("%s: EdgeAt order differs from the reference", name)
	}
	for u := 0; u < g.N(); u++ {
		if !reflect.DeepEqual(got.FinalGraph.Neighbors(u), ref.FinalGraph.Neighbors(u)) {
			t.Fatalf("%s: neighbors of %d are %v, reference %v", name, u, got.FinalGraph.Neighbors(u), ref.FinalGraph.Neighbors(u))
		}
	}
	if a, b := gotRng.Int63(), refRng.Int63(); a != b {
		t.Fatalf("%s: random source then gives %d, reference %d", name, a, b)
	}
	return ref
}

// TestTargetRewireMatchesStepLoop pins TargetRewire, one Rewirer.Run,
// against the Step loop it replaced: at d = 1, 2 and 3, at T = 0 and
// T = 4, with and without StopAtZero, from starts rewired at depth d−1
// away from the target; from a start already at D = 0; and with a
// budget whose last attempt exhausts the patience, which must still
// report StopPatience. Every stop reason must occur.
func TestTargetRewireMatchesStepLoop(t *testing.T) {
	rng := newRng(7)
	src := connectedRandom(rng, 30, 15)
	p, err := dk.Extract(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[StopReason]bool{}
	for d := 1; d <= 3; d++ {
		start, _, err := Randomize(src, d-1, RandomizeOptions{Rng: rng})
		if err != nil {
			t.Fatal(err)
		}
		for _, temp := range []float64{0, 4} {
			for _, zero := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("d=%d T=%v StopAtZero=%v seed=%d", d, temp, zero, seed)
					opt := TargetOptions{Temperature: temp, StopAtZero: zero, MaxAttempts: 60 * src.M(), Patience: 2 * src.M()}
					ref := checkTargetMatchesStepLoop(t, name, start, p, d, opt, seed)
					seen[ref.Stop] = true
					if ref.Stop != StopPatience {
						continue
					}
					opt.MaxAttempts = ref.Stats.Attempts
					ref = checkTargetMatchesStepLoop(t, name+" budget ends on patience", start, p, d, opt, seed)
					if ref.Stop != StopPatience || ref.Stats.Attempts != opt.MaxAttempts {
						t.Fatalf("%s: reference stop %v after %d attempts; want patience on the last of %d", name, ref.Stop, ref.Stats.Attempts, opt.MaxAttempts)
					}
				}
			}
		}
		ref := checkTargetMatchesStepLoop(t, fmt.Sprintf("d=%d at zero", d), src, p, d, TargetOptions{StopAtZero: true}, 1)
		if ref.Stop != StopZero || ref.Stats.Attempts != 0 {
			t.Fatalf("d=%d: a start at D = 0 gave stop %v after %d attempts", d, ref.Stop, ref.Stats.Attempts)
		}
	}
	for _, s := range []StopReason{StopMaxAttempts, StopZero, StopPatience} {
		if !seen[s] {
			t.Fatalf("no run from a start away from the target stopped with %v; the comparison is vacuous", s)
		}
	}
}
