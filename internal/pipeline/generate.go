package pipeline

import (
	"fmt"
	"math/rand"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/pkg/dkapi"
)

// Generation is a generate or randomize step after the step rules: the
// defaults applied and the §4 method resolved. Every generate entry
// point — pipeline steps, POST /v1/generate and its journal recovery,
// and pkg/dk's streaming and profile-only generation — gets its
// settings from GenerateRules and builds each replica with Replica.
type Generation struct {
	D         int             // dK depth (default 2)
	Name      string          // wire method name (default "randomize")
	Method    generate.Method // construction method; unused when Randomize
	Randomize bool            // dK-preserving rewiring of the source graph
	Replicas  int             // ensemble size (default 1)
}

// GenerateRules applies the step rules to a generate or randomize step,
// in this order: depth in 0..3, no method on a randomize op, a method
// that §4 offers at that depth (generate.ParseMethod), and
// 1..maxReplicas replicas. maxReplicas 0 leaves the count unbounded
// above, for callers that stream their ensemble. Errors state the
// broken rule; Validate prefixes the step.
func GenerateRules(st dkapi.PipelineStep, maxReplicas int) (Generation, error) {
	g := Generation{D: Depth(st), Name: methodName(st), Replicas: st.Replicas}
	if g.D < 0 || g.D > 3 {
		return Generation{}, fmt.Errorf("depth d=%d outside 0..3", g.D)
	}
	if st.Op == dkapi.OpRandomize && st.Method != "" && st.Method != "randomize" {
		return Generation{}, fmt.Errorf("op randomize does not take a method (got %q)", st.Method)
	}
	var err error
	if g.Method, g.Randomize, err = generate.ParseMethod(g.Name, g.D); err != nil {
		return Generation{}, err
	}
	if g.Replicas == 0 {
		g.Replicas = 1
	}
	switch {
	case maxReplicas > 0 && (g.Replicas < 1 || g.Replicas > maxReplicas):
		return Generation{}, fmt.Errorf("replicas=%d outside 1..%d", g.Replicas, maxReplicas)
	case g.Replicas < 1:
		return Generation{}, fmt.Errorf("replicas=%d must be at least 1", g.Replicas)
	}
	return g, nil
}

// NeedsProfile reports whether the step reads the source's depth-D
// profile: construction from a distribution always does, randomizing
// only to score each replica against the source (compare).
func (g Generation) NeedsProfile(compare bool) bool {
	return !g.Randomize || compare
}

// Replica builds one replica from rng: dK-preserving rewiring of src
// when the step randomizes, otherwise construction from the profile p
// by the step's method. onProgress, when set, receives the rewiring's
// convergence samples and never changes the graph; the returned stats
// are zero for a construction.
func (g Generation) Replica(src *graph.CSR, p *dk.Profile, rng *rand.Rand, onProgress func(generate.RewireProgress)) (*graph.CSR, generate.RewireStats, error) {
	if g.Randomize {
		return generate.Randomize(src, g.D, generate.RandomizeOptions{Rng: rng, OnProgress: onProgress})
	}
	out, err := generate.FromProfile(p, g.D, g.Method, rng)
	return out, generate.RewireStats{}, err
}
