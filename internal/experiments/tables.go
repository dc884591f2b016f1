package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// twoKMethods are the five 2K-construction techniques compared in Table 3
// and Figure 5 of the paper, in the paper's column order.
var twoKMethods = []string{"stochastic", "pseudograph", "matching", "2K-randomizing", "2K-targeting"}

// generate2K builds one 2K graph of the reference by the named method.
func generate2K(ref *graph.CSR, p *dk.Profile, method string, rng *rand.Rand) (*graph.CSR, error) {
	switch method {
	case "stochastic", "pseudograph", "matching":
		m, _, err := generate.ParseMethod(method, 2)
		if err != nil {
			return nil, err
		}
		return generate.FromProfile(p, 2, m, rng)
	case "2K-randomizing":
		out, _, err := generate.Randomize(ref, 2, generate.RandomizeOptions{Rng: rng})
		return out, err
	case "2K-targeting":
		return generate.FromProfile(p, 2, generate.MethodTargeting, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown 2K method %q", method)
	}
}

// generate3K builds one 3K graph of the reference by the named method
// (Table 4 and Figure 5c).
func generate3K(ref *graph.CSR, p *dk.Profile, method string, rng *rand.Rand) (*graph.CSR, error) {
	switch method {
	case "3K-randomizing":
		out, _, err := generate.Randomize(ref, 3, generate.RandomizeOptions{Rng: rng})
		return out, err
	case "3K-targeting":
		return generate.FromProfile(p, 3, generate.MethodTargeting, rng)
	default:
		return nil, fmt.Errorf("experiments: unknown 3K method %q", method)
	}
}

// generateDKRandom builds one dK-random counterpart of the reference via
// dK-randomizing rewiring — the technique Section 5.2 of the paper uses
// throughout its topology comparisons.
func generateDKRandom(ref *graph.CSR, depth int, rng *rand.Rand) (*graph.CSR, error) {
	out, _, err := generate.Randomize(ref, depth, generate.RandomizeOptions{Rng: rng})
	return out, err
}

// scalarRows renders the Table 3/4-style metric rows: one row per scalar
// metric, one column per variant plus the original.
func scalarRows(metricsOrder []string, cols []metrics.Summary, orig metrics.Summary) [][]string {
	pickVal := func(s metrics.Summary, name string) float64 {
		switch name {
		case "kbar":
			return s.AvgDegree
		case "r":
			return s.R
		case "cbar":
			return s.CBar
		case "dbar":
			return s.DBar
		case "sigma_d":
			return s.SigmaD
		case "lambda1":
			return s.Lambda1
		case "lambda_n-1":
			return s.LambdaN
		default:
			panic("experiments: unknown metric " + name)
		}
	}
	rows := make([][]string, 0, len(metricsOrder))
	for _, name := range metricsOrder {
		row := []string{name}
		for _, s := range cols {
			row = append(row, f(pickVal(s, name)))
		}
		row = append(row, f(pickVal(orig, name)))
		rows = append(rows, row)
	}
	return rows
}

// Table3 reproduces the paper's Table 3: scalar metrics for 2K-random HOT
// graphs generated by the five techniques, versus the original.
func (l *Lab) Table3() (*Table, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	p, err := l.HOTProfile()
	if err != nil {
		return nil, err
	}
	// Independent construction techniques run concurrently; each column
	// derives its RNG streams from its own purpose id, so the table is
	// identical at every worker count.
	cols := make([]metrics.Summary, len(twoKMethods))
	err = parallel.ForErr(len(twoKMethods), func(mi int) error {
		method := twoKMethods[mi]
		sum, err := l.meanSummaryOver(false, 300+int64(mi), func(rng *rand.Rand) (*graph.CSR, error) {
			return generate2K(hot, p, method, rng)
		})
		if err != nil {
			return fmt.Errorf("table3 %s: %w", method, err)
		}
		cols[mi] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	orig, err := summarizeGCC(hot, false, l.Rng(399))
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "table3",
		Title:  "Scalar metrics for 2K-random HOT graphs by construction technique",
		Header: append(append([]string{"metric"}, twoKMethods...), "original HOT"),
		Rows:   scalarRows([]string{"kbar", "r", "dbar", "sigma_d"}, cols, orig),
	}, nil
}

// Table4 reproduces Table 4: scalar metrics for 3K-random HOT graphs via
// 3K-randomizing and 3K-targeting rewiring.
func (l *Lab) Table4() (*Table, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	p, err := l.HOTProfile()
	if err != nil {
		return nil, err
	}
	methods := []string{"3K-randomizing", "3K-targeting"}
	cols := make([]metrics.Summary, len(methods))
	err = parallel.ForErr(len(methods), func(mi int) error {
		method := methods[mi]
		sum, err := l.meanSummaryOver(false, 400+int64(mi), func(rng *rand.Rand) (*graph.CSR, error) {
			return generate3K(hot, p, method, rng)
		})
		if err != nil {
			return fmt.Errorf("table4 %s: %w", method, err)
		}
		cols[mi] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	orig, err := summarizeGCC(hot, false, l.Rng(499))
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "table4",
		Title:  "Scalar metrics for 3K-random HOT graphs",
		Header: append(append([]string{"metric"}, methods...), "original HOT"),
		Rows:   scalarRows([]string{"kbar", "r", "dbar", "sigma_d"}, cols, orig),
	}, nil
}

// Table5 reproduces Table 5: the number of possible initial
// dK-randomizing rewirings of the HOT graph for d = 0..3, with and
// without obvious-isomorphism discounting.
func (l *Lab) Table5() (*Table, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	rows := make([][]string, 0, 4)
	for d := 0; d <= 3; d++ {
		rc, err := generate.CountInitialRewirings(hot, d)
		if err != nil {
			return nil, err
		}
		iso := fi(rc.IgnoringIsomorphs)
		if d == 0 {
			iso = "-" // the paper reports no discount at d = 0
		}
		rows = append(rows, []string{fmt.Sprintf("%d", d), fi(rc.Possible), iso})
	}
	return &Table{
		ID:     "table5",
		Title:  "Possible initial dK-randomizing rewirings for the HOT graph",
		Header: []string{"d", "possible rewirings", "ignoring obvious isomorphisms"},
		Rows:   rows,
	}, nil
}

// dkRandomTable is the shared engine of Tables 6 and 8: dK-random
// counterparts of a reference for d = 0..3, with the full scalar metric
// suite (including the Laplacian spectrum bounds).
func (l *Lab) dkRandomTable(id, title string, ref *graph.CSR, purpose int64) (*Table, error) {
	// The four dK depths are independent topologies of the same table;
	// fan them out, keeping per-depth purpose-derived RNG streams.
	cols := make([]metrics.Summary, 4)
	err := parallel.ForErr(4, func(d int) error {
		sum, err := l.meanSummaryOver(true, purpose+int64(d), func(rng *rand.Rand) (*graph.CSR, error) {
			return generateDKRandom(ref, d, rng)
		})
		if err != nil {
			return fmt.Errorf("%s depth %d: %w", id, d, err)
		}
		cols[d] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	orig, err := summarizeGCC(ref, true, l.Rng(purpose+99))
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     id,
		Title:  title,
		Header: []string{"metric", "0K", "1K", "2K", "3K", "original"},
		Rows: scalarRows(
			[]string{"kbar", "r", "cbar", "dbar", "sigma_d", "lambda1", "lambda_n-1"},
			cols, orig),
	}, nil
}

// Table6 reproduces Table 6: scalar metrics for dK-random and skitter
// graphs.
func (l *Lab) Table6() (*Table, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	return l.dkRandomTable("table6", "Scalar metrics for dK-random vs skitter-like graphs", sk, 600)
}

// Table8 reproduces Table 8: scalar metrics for dK-random and HOT graphs.
func (l *Lab) Table8() (*Table, error) {
	hot, err := l.HOT()
	if err != nil {
		return nil, err
	}
	return l.dkRandomTable("table8", "Scalar metrics for dK-random vs HOT graphs", hot, 800)
}

// Table7 reproduces Table 7: scalar metrics of 2K-space explorations for
// the skitter-like graph — clustering minimized/maximized, S2
// minimized/maximized, against the 2K-random graph and the original, with
// the S2/S2max summary row.
func (l *Lab) Table7() (*Table, error) {
	sk, err := l.Skitter()
	if err != nil {
		return nil, err
	}
	type variant struct {
		name   string
		metric generate.ExploreMetric
		max    bool
	}
	variants := []variant{
		{"min C̄", generate.MetricClustering, false},
		{"max C̄", generate.MetricClustering, true},
		{"min S2", generate.MetricS2, false},
		{"max S2", generate.MetricS2, true},
	}
	budget := 40 * sk.M() // exploration proposal budget per run
	// The four explorations are independent hill climbs; run them
	// concurrently with per-variant RNG streams.
	cols := make([]metrics.Summary, len(variants), len(variants)+2)
	err = parallel.ForErr(len(variants), func(vi int) error {
		v := variants[vi]
		rng := l.Rng(700 + int64(vi))
		res, err := generate.Explore(sk, v.metric, generate.ExploreOptions{
			Rng:         rng,
			Maximize:    v.max,
			MaxAttempts: budget,
			Patience:    budget / 2,
		})
		if err != nil {
			return fmt.Errorf("table7 %s: %w", v.name, err)
		}
		sum, err := summarizeGCC(res.FinalGraph, true, rng)
		if err != nil {
			return err
		}
		cols[vi] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	// 2K-random column.
	rng := l.Rng(790)
	rnd, err := generateDKRandom(sk, 2, rng)
	if err != nil {
		return nil, err
	}
	rndSum, err := summarizeGCC(rnd, true, rng)
	if err != nil {
		return nil, err
	}
	cols = append(cols, rndSum)
	orig, err := summarizeGCC(sk, true, l.Rng(799))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table7",
		Title:  "Scalar metrics for 2K-space explorations (skitter-like)",
		Header: []string{"metric", "min C̄", "max C̄", "min S2", "max S2", "2K-random", "skitter"},
		Rows: scalarRows(
			[]string{"kbar", "r", "cbar", "dbar", "sigma_d", "lambda1", "lambda_n-1"},
			cols, orig),
	}
	// S2/S2max row: normalize by the maximum S2 reached by exploration.
	s2max := cols[3].S2 // the "max S2" column
	if s2max > 0 {
		row := []string{"S2/S2max"}
		for _, s := range cols {
			row = append(row, f(s.S2/s2max))
		}
		row = append(row, f(orig.S2/s2max))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
