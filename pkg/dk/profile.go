package dk

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/pkg/dkapi"
)

// Profile is the dK-profile type appearing in extract results; it
// marshals to the stable sorted-key JSON of the wire format. Its 3K
// census holds Census.Wedges and Census.Triangles as arrays sorted by
// class key (look a class up with Census.Wedge or Census.Triangle), in
// the same order and the same JSON form as the wire.
type Profile = dkapi.Profile

// GenerateFromProfile constructs a replica ensemble directly from an
// extracted profile, without a source graph — the paper's §4
// construction methods (stochastic, pseudograph, matching, targeting).
// Method "randomize" is rejected: dK-preserving rewiring needs the
// original graph; use Generate for that. Replica i derives its own
// seed stream, identically to Generate and the HTTP service.
func GenerateFromProfile(p *Profile, opts GenerateOptions) ([]*Graph, error) {
	gen, err := generateRules(opts)
	if err != nil {
		return nil, err
	}
	if gen.Randomize {
		return nil, fmt.Errorf("method randomize needs a source graph; use Generate")
	}
	graphs, err := generate.Replicas(gen.Replicas, opts.Seed, func(i int, rng *rand.Rand) (*graph.CSR, error) {
		g, _, err := gen.Replica(nil, p, rng, nil)
		return g, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Graph, len(graphs))
	for i, g := range graphs {
		out[i] = wrap(g, nil)
	}
	return out, nil
}

// generateRules applies the pipeline's generate step rules to opts,
// with no upper bound on the replica count: the streaming and
// profile-only entry points build ensembles of any size.
func generateRules(opts GenerateOptions) (pipeline.Generation, error) {
	return pipeline.GenerateRules(dkapi.PipelineStep{
		Op: dkapi.OpGenerate, D: opts.D, Method: opts.Method, Replicas: opts.Replicas,
	}, 0)
}

// Connect returns a connected copy of g, produced by degree-preserving
// edge swaps (Viger–Latapy). isolated counts degree-0 nodes that cannot
// be attached degree-preservingly. The input is untouched. When
// connecting the replicas of an ensemble, derive one seed per replica
// (e.g. parallel.SubSeed) — a shared seed would correlate the swap
// sequences across what are meant to be independent samples.
func Connect(g *Graph, seed int64) (out *Graph, isolated int, err error) {
	clone := g.g.Clone()
	isolated, err = generate.ConnectViaSwaps(clone, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, 0, err
	}
	return wrap(clone, nil), isolated, nil
}

// GenerateStream is Generate with bounded memory: replica i is built,
// handed to emit, and released — peak memory is one graph per worker
// instead of the whole ensemble. Seeds derive exactly like Generate
// (parallel.SubSeed(seed, i)), so the graphs are identical to a batch
// run; emit runs concurrently across replicas and must be safe for
// that (writing each replica to its own file is the intended shape).
// Compare is not supported here — it needs the replicas' profiles,
// which defeats the point of streaming; use Generate.
func (s *Session) GenerateStream(ctx context.Context, src *Graph, opts GenerateOptions, emit func(i int, g *Graph) error) error {
	if opts.Compare {
		return fmt.Errorf("GenerateStream does not support Compare; use Generate")
	}
	gen, err := generateRules(opts)
	if err != nil {
		return err
	}
	// Resolve through the session so the profile extraction is cached
	// like every other execution path.
	ref := s.Add(src)
	h, err := backend{s}.Resolve(ref)
	if err != nil {
		return err
	}
	var profile *Profile
	if gen.NeedsProfile(opts.Compare) {
		profile, _, err = h.Profile(gen.D)
		if err != nil {
			return err
		}
	}
	base := h.Graph()
	return parallel.ForErr(gen.Replicas, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(parallel.SubSeed(opts.Seed, i)))
		var onProgress func(generate.RewireProgress)
		if opts.OnRewireProgress != nil {
			onProgress = func(p generate.RewireProgress) {
				opts.OnRewireProgress(i, RewireProgress{
					Sweep:                 p.Sweep,
					Attempts:              p.Attempts,
					Accepted:              p.Accepted,
					WindowAttempts:        p.WindowAttempts,
					WindowAccepted:        p.WindowAccepted,
					AcceptanceRate:        p.AcceptanceRate,
					RejectedSelfLoop:      p.Rejected.SelfLoop,
					RejectedDuplicateEdge: p.Rejected.DuplicateEdge,
					RejectedJDDMismatch:   p.Rejected.JDDMismatch,
					RejectedCensusChanged: p.Rejected.CensusChanged,
					RejectedObjective:     p.Rejected.Objective,
					RejectedDisconnected:  p.Rejected.Disconnected,
				})
			}
		}
		out, st, err := gen.Replica(base, profile, rng, onProgress)
		if err != nil {
			return err
		}
		if gen.Randomize && opts.OnRewireStats != nil {
			opts.OnRewireStats(i, RewireStats{
				Attempts:              st.Attempts,
				Accepted:              st.Accepted,
				Reverted:              st.Reverted,
				RejectedSelfLoop:      st.Rejected.SelfLoop,
				RejectedDuplicateEdge: st.Rejected.DuplicateEdge,
				RejectedJDDMismatch:   st.Rejected.JDDMismatch,
				RejectedCensusChanged: st.Rejected.CensusChanged,
				RejectedObjective:     st.Rejected.Objective,
				RejectedDisconnected:  st.Rejected.Disconnected,
			})
		}
		return emit(i, wrap(out, nil))
	})
}
