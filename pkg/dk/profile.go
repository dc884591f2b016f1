package dk

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/parallel"
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
	d := 2
	if opts.D != nil {
		d = *opts.D
	}
	if d < 0 || d > 3 {
		return nil, fmt.Errorf("depth d=%d outside 0..3", d)
	}
	method, randomize, err := generate.ParseMethod(opts.Method, d)
	if err != nil {
		return nil, err
	}
	if randomize {
		return nil, fmt.Errorf("method randomize needs a source graph; use Generate")
	}
	replicas := opts.Replicas
	if replicas == 0 {
		replicas = 1
	}
	graphs, err := generate.Replicas(replicas, opts.Seed, func(i int, rng *rand.Rand) (*graph.CSR, error) {
		return generate.FromProfile(p, d, method, rng)
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
	d := 2
	if opts.D != nil {
		d = *opts.D
	}
	if d < 0 || d > 3 {
		return fmt.Errorf("depth d=%d outside 0..3", d)
	}
	method, randomize, err := generate.ParseMethod(opts.Method, d)
	if err != nil {
		return err
	}
	replicas := opts.Replicas
	if replicas == 0 {
		replicas = 1
	}
	// Resolve through the session so the profile extraction is cached
	// like every other execution path.
	ref := s.Add(src)
	h, err := backend{s}.Resolve(ref)
	if err != nil {
		return err
	}
	var profile *Profile
	if !randomize {
		profile, _, err = h.Profile(d)
		if err != nil {
			return err
		}
	}
	base := h.Graph()
	return parallel.ForErr(replicas, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(parallel.SubSeed(opts.Seed, i)))
		var out *graph.CSR
		var err error
		if randomize {
			ropts := generate.RandomizeOptions{Rng: rng}
			if opts.OnRewireProgress != nil {
				replica := i
				ropts.OnProgress = func(p generate.RewireProgress) {
					opts.OnRewireProgress(replica, RewireProgress{
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
			var st generate.RewireStats
			out, st, err = generate.Randomize(base, d, ropts)
			if err == nil && opts.OnRewireStats != nil {
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
		} else {
			out, err = generate.FromProfile(profile, d, method, rng)
		}
		if err != nil {
			return err
		}
		return emit(i, wrap(out, nil))
	})
}
