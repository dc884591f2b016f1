package main

import (
	"fmt"
	"os"
	"reflect"
	"slices"
)

// tally counts operations and the ones that failed: an operation fails
// when it returns an error or when one of its output checks fails.
type tally struct {
	attempted, failed int
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	fmt.Fprintf(os.Stderr, "dkperf: FAIL: "+format+"\n", args...)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// comparedSteps returns the generate steps that report each replica's
// D_d to the source, in the order of outcome.distances.
func comparedSteps(w workload) []step {
	var out []step
	for _, st := range w.steps {
		if st.op == opGenerate && st.compare {
			out = append(out, st)
		}
	}
	return out
}

// checkRandomizeExact fails every randomize step whose replicas are not
// at D_d = 0 from their source: dK-randomizing rewiring must preserve
// the dK-distribution exactly.
func checkRandomizeExact(t *tally, w workload, session int, o outcome) {
	for k, st := range comparedSteps(w) {
		if st.method != "randomize" {
			continue
		}
		for i, d := range o.distances[k] {
			if d != 0 {
				t.fail("session %d: randomize replica %d at D_%d = %v, want 0", session, i, st.d, d)
			}
		}
	}
}

// checkSame fails when two runs of the same inputs disagree: replica
// content hashes, residual distances, metric summaries or scenario
// curves. what names the pair of runs in failure messages.
func checkSame(t *tally, what string, want, got []outcome) {
	if len(want) != len(got) {
		t.fail("%s: %d sessions vs %d", what, len(want), len(got))
		return
	}
	for i := range want {
		a, b := want[i], got[i]
		if !slices.EqualFunc(a.hashes, b.hashes, slices.Equal) {
			t.fail("%s: session %d replica hashes differ", what, i)
		}
		if !slices.EqualFunc(a.distances, b.distances, slices.Equal) {
			t.fail("%s: session %d residuals differ: %v vs %v", what, i, a.distances, b.distances)
		}
		if !slices.Equal(a.summaries, b.summaries) {
			t.fail("%s: session %d metric summaries differ", what, i)
		}
		if !reflect.DeepEqual(a.scenarios, b.scenarios) {
			t.fail("%s: session %d scenario curves differ", what, i)
		}
	}
}
