// Command dkbench is the core benchmark harness: it times the paper's
// §4.1.4 construction pipeline and §2 metric suite — the repository's
// hot paths — on a synthetic skitter-like topology at two sizes with
// fixed seeds, and writes the results to a JSON report. The committed
// BENCH_core.json at the repository root is this tool's output on the
// reference machine: every PR that touches a hot path re-runs dkbench
// and commits the delta, so the performance trajectory of extraction,
// generation, connection, rewiring, and the metric sweep is tracked in
// version control the same way BENCH_store.json tracks the artifact
// store (see docs/PERF.md).
//
//	dkbench                          # small+large → BENCH_core.json
//	dkbench -size all                # + the million-edge huge tier
//	dkbench -size small -out /tmp/b.json
//	dkbench -verify BENCH_core.json  # schema/completeness check (CI)
//	dkbench -verify fresh.json -against BENCH_core.json
//	                                 # + per-workload regression gate
//
// The regression gate compares a fresh report against the committed
// baseline: any workload whose mean exceeds baseline × -regress-factor
// (and the -regress-min-ms noise floor) fails the verify, so a pinned
// win — e.g. the depth-3 rewiring speedup — cannot silently regress.
// Sizes are matched by name and must agree on topology (n, m).
//
// Workloads per size (all keys always present):
//
//	extract_1k/2k/3k   dK-profile extraction at depths 1..3
//	stochastic_1k/2k   §4.1.1 stochastic constructions
//	pseudograph_2k     §4.1.2 edge-end grouping configuration model
//	matching_2k        §4.1.3 loop-avoiding stub matching
//	connect            Viger–Latapy connectivity repair of the
//	                   matching output (ConnectViaSwaps)
//	rewire_d0..d3      dK-preserving randomizing rewiring
//	target_d2          §4.1.4 2K-targeting 1K-preserving rewiring from
//	                   a 1K matching (20·M proposals)
//	target_d3          3K-targeting 2K-preserving rewiring from the 2K
//	                   matching output (20·M proposals)
//	explore_clustering §4.3 C̄-maximizing 2K-preserving exploration
//	                   (20·M proposals)
//	netsim_robustness  §5 percolation robustness curve (20 fractions)
//	netsim_epidemic    §5 SI worm spread (beta 0.5)
//	metrics            scalar metric sweep of the GCC (incl. spectral)
//
// The huge tier (-size huge|all) synthesizes a ~10⁶-edge topology and
// runs the subset that exercises the million-node path — extraction at
// all depths, 2K construction, depth-2 rewiring, and the scalar sweep
// in sampled-metric mode — each once, recording the process peak RSS
// alongside the timings. CI runs the small tier only; the huge baseline
// is regenerated manually with the rest of BENCH_core.json.
//
// Timings are mean wall-clock milliseconds over a fixed iteration
// count (heavy workloads run once). Rewiring uses SwapFactor 2 — the
// report tracks per-move cost trajectory, not full mixing, which the
// ablation benchmarks at the repository root cover.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"syscall"
	"time"

	"math"

	"repro/internal/cli"
	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// hugeWorkloadKeys is the reduced vocabulary of the huge tier: the
// paths that must stay viable at a million edges.
var hugeWorkloadKeys = []string{
	"extract_1k", "extract_2k", "extract_3k",
	"pseudograph_2k", "rewire_d2",
	"metrics_sampled",
}

// keysForSize selects the workload vocabulary a size must carry.
func keysForSize(name string) []string {
	if name == "huge" {
		return hugeWorkloadKeys
	}
	return workloadKeys
}

// schemaVersion identifies the report layout; bump on breaking changes.
const schemaVersion = "dkbench/v1"

// workloadKeys is the complete workload vocabulary; -verify checks
// every key is present for every size in a report.
var workloadKeys = []string{
	"extract_1k", "extract_2k", "extract_3k",
	"stochastic_1k", "stochastic_2k",
	"pseudograph_2k", "matching_2k", "connect",
	"rewire_d0", "rewire_d1", "rewire_d2", "rewire_d3",
	"target_d2", "target_d3", "explore_clustering",
	"netsim_robustness", "netsim_epidemic",
	"metrics",
}

// workload is one timed measurement.
type workload struct {
	MS    float64 `json:"ms"`    // mean wall-clock per run
	Iters int     `json:"iters"` // timed runs averaged over
}

// sizeReport carries one topology size's measurements.
type sizeReport struct {
	N         int                 `json:"n"`
	M         int                 `json:"m"`
	Workloads map[string]workload `json:"workloads"`
	// PeakRSSMB is the process high-water resident set after this size's
	// run (sizes run smallest-first, so each value bounds its own tier).
	// Recorded for the huge tier, where memory is the headline number.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
}

// report is the schema of BENCH_core.json.
type report struct {
	Schema  string                 `json:"schema"`
	Seed    int64                  `json:"seed"`
	Workers int                    `json:"workers"`
	Sizes   map[string]*sizeReport `json:"sizes"`
}

func main() {
	out := flag.String("out", "BENCH_core.json", "report output path")
	size := flag.String("size", "both", "which sizes to run: small|large|huge|both|all")
	smallN := flag.Int("small-n", 1000, "node count of the small topology")
	largeN := flag.Int("large-n", 4000, "node count of the large topology")
	hugeN := flag.Int("huge-n", 500000, "node count of the huge topology (~10⁶ edges)")
	seed := flag.Int64("seed", 2, "synthesis and workload seed")
	verify := flag.String("verify", "", "verify an existing report instead of benchmarking")
	against := flag.String("against", "", "with -verify: baseline report for the per-workload regression gate")
	regressFactor := flag.Float64("regress-factor", 2.0, "with -against: fail when fresh ms exceeds baseline ms by this factor")
	regressMinMS := flag.Float64("regress-min-ms", 5.0, "with -against: ignore regressions below this absolute ms (noise floor)")
	workers := flag.Int("workers", 0, "worker budget (0 = GOMAXPROCS)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if cli.Version("dkbench", *showVersion) {
		return
	}
	if *verify != "" {
		if err := verifyReport(*verify); err != nil {
			fmt.Fprintf(os.Stderr, "dkbench: verify %s: %v\n", *verify, err)
			os.Exit(1)
		}
		if *against != "" {
			if err := verifyAgainst(*verify, *against, *regressFactor, *regressMinMS); err != nil {
				fmt.Fprintf(os.Stderr, "dkbench: verify %s against %s: %v\n", *verify, *against, err)
				os.Exit(1)
			}
			fmt.Printf("%s: schema %s complete, within %.1fx of %s\n", *verify, schemaVersion, *regressFactor, *against)
			return
		}
		fmt.Printf("%s: schema %s complete\n", *verify, schemaVersion)
		return
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	sizes := map[string]int{}
	switch *size {
	case "small":
		sizes["small"] = *smallN
	case "large":
		sizes["large"] = *largeN
	case "huge":
		sizes["huge"] = *hugeN
	case "both":
		sizes["small"], sizes["large"] = *smallN, *largeN
	case "all":
		sizes["small"], sizes["large"], sizes["huge"] = *smallN, *largeN, *hugeN
	default:
		fmt.Fprintf(os.Stderr, "dkbench: -size %q (want small|large|huge|both|all)\n", *size)
		os.Exit(2)
	}
	rep := &report{Schema: schemaVersion, Seed: *seed, Workers: parallel.Workers(), Sizes: map[string]*sizeReport{}}
	for _, name := range []string{"small", "large", "huge"} {
		n, ok := sizes[name]
		if !ok {
			continue
		}
		var sr *sizeReport
		var err error
		if name == "huge" {
			sr, err = runHuge(n, *seed)
		} else {
			sr, err = runSize(name, n, *seed)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dkbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		rep.Sizes[name] = sr
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dkbench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dkbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

// runSize measures every workload on one synthesized topology.
func runSize(name string, n int, seed int64) (*sizeReport, error) {
	fmt.Fprintf(os.Stderr, "dkbench: %s: synthesizing skitter-like topology n=%d...\n", name, n)
	src, err := datasets.Skitter(datasets.SkitterConfig{N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	sr := &sizeReport{N: src.N(), M: src.M(), Workloads: map[string]workload{}}
	record := func(key string, iters int, f func(rng *rand.Rand) error) error {
		ms, err := timeIt(iters, seed, f)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		sr.Workloads[key] = workload{MS: ms, Iters: iters}
		fmt.Fprintf(os.Stderr, "dkbench: %s: %-15s %10.2f ms\n", name, key, ms)
		return nil
	}

	// Extraction at each depth; the depth-3 census dominates.
	var profile, profile3 *dk.Profile
	for d := 1; d <= 3; d++ {
		d := d
		iters := 5
		if d == 3 {
			iters = 1
		}
		err := record(fmt.Sprintf("extract_%dk", d), iters, func(*rand.Rand) error {
			p, err := dk.Extract(src, d)
			switch {
			case err != nil:
			case d == 2:
				profile = p
			case d == 3:
				profile3 = p
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Stochastic constructions from the extracted distributions.
	if err := record("stochastic_1k", 5, func(rng *rand.Rand) error {
		_, err := generate.Stochastic1K(profile.Degrees, generate.Options{Rng: rng})
		return err
	}); err != nil {
		return nil, err
	}
	if err := record("stochastic_2k", 5, func(rng *rand.Rand) error {
		_, err := generate.Stochastic2K(profile.Joint, generate.Options{Rng: rng})
		return err
	}); err != nil {
		return nil, err
	}

	// Configuration-model constructions; matching's output doubles as
	// the (generally disconnected) input of the connect workload.
	if err := record("pseudograph_2k", 3, func(rng *rand.Rand) error {
		_, err := generate.Pseudograph2K(profile.Joint, generate.Options{Rng: rng})
		return err
	}); err != nil {
		return nil, err
	}
	var matched *graph.CSR
	if err := record("matching_2k", 3, func(rng *rand.Rand) error {
		g, err := generate.Matching2K(profile.Joint, generate.Options{Rng: rng})
		matched = g
		return err
	}); err != nil {
		return nil, err
	}
	// Clones are pre-built outside the timed region — Clone is O(n+m),
	// the same order as the rewritten ConnectViaSwaps, so timing it
	// would let clone cost mask a regression in the repair itself.
	const connectIters = 5
	connectInputs := make([]*graph.CSR, connectIters+1) // +1 warm-up
	for i := range connectInputs {
		connectInputs[i] = matched.Clone()
	}
	if err := record("connect", connectIters, func(rng *rand.Rand) error {
		work := connectInputs[0]
		connectInputs = connectInputs[1:]
		_, err := generate.ConnectViaSwaps(work, rng)
		return err
	}); err != nil {
		return nil, err
	}

	// dK-preserving randomizing rewiring, depths 0..3.
	for d := 0; d <= 3; d++ {
		d := d
		iters := 3
		if d == 3 {
			iters = 1
		}
		err := record(fmt.Sprintf("rewire_d%d", d), iters, func(rng *rand.Rand) error {
			_, _, err := generate.Randomize(src, d, generate.RandomizeOptions{Rng: rng, SwapFactor: 2})
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	// Objective-driven rewiring: dK-targeting from a (d−1)K matching,
	// the generate.FromProfile targeting path, and clustering exploration, the
	// Skitter generator's steering step. Each runs a fixed proposal
	// budget, so the timing is per-proposal cost times 20·M.
	budget := 20 * src.M()
	start1K, err := generate.Matching1K(profile.Degrees, generate.Options{Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		return nil, err
	}
	for _, w := range []struct {
		key   string
		d     int
		start *graph.CSR
	}{{"target_d2", 2, start1K}, {"target_d3", 3, matched}} {
		w := w
		err := record(w.key, 1, func(rng *rand.Rand) error {
			_, err := generate.TargetRewire(w.start, profile3, w.d, generate.TargetOptions{
				Rng: rng, StopAtZero: true, MaxAttempts: budget,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if err := record("explore_clustering", 1, func(rng *rand.Rand) error {
		_, err := generate.Explore(src, generate.MetricClustering, generate.ExploreOptions{
			Rng: rng, Maximize: true, MaxAttempts: budget,
		})
		return err
	}); err != nil {
		return nil, err
	}

	// Scenario simulations — the per-trial hot loops of the netsim
	// pipeline step (internal/scenario fans these out per graph × trial).
	fracs := make([]float64, 20)
	for i := range fracs {
		fracs[i] = float64(i) / 20
	}
	if err := record("netsim_robustness", 3, func(rng *rand.Rand) error {
		_, err := netsim.Robustness(src, fracs, false, rng)
		return err
	}); err != nil {
		return nil, err
	}
	if err := record("netsim_epidemic", 3, func(rng *rand.Rand) error {
		_, err := netsim.WormSpread(src, 0.5, 64, rng)
		return err
	}); err != nil {
		return nil, err
	}

	// The scalar metric sweep of the paper's tables, on the GCC.
	gcc, _ := graph.GiantComponent(src)
	if err := record("metrics", 1, func(rng *rand.Rand) error {
		_, err := metrics.Summarize(gcc, metrics.SummaryOptions{Spectral: true, Rng: rng})
		return err
	}); err != nil {
		return nil, err
	}
	return sr, nil
}

// runHuge measures the huge tier: each workload once, no warm-up, on
// the ~10⁶-edge topology. Depth-2 rewiring uses SwapFactor 1 (one
// accepted swap per edge) so the tier bounds per-move cost without
// waiting out a full 10×M mixing run, and the scalar sweep relies on
// the automatic sampled-distance switch (the topology is far past
// metrics.AutoSampleThreshold), with the spectral pair and S2 off.
func runHuge(n int, seed int64) (*sizeReport, error) {
	fmt.Fprintf(os.Stderr, "dkbench: huge: synthesizing power-law topology n=%d...\n", n)
	src, err := hugeTopology(n, seed)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "dkbench: huge: topology ready, n=%d m=%d\n", src.N(), src.M())
	sr := &sizeReport{N: src.N(), M: src.M(), Workloads: map[string]workload{}}
	record := func(key string, f func(rng *rand.Rand) error) error {
		ms, err := timeIt(1, seed, f)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		sr.Workloads[key] = workload{MS: ms, Iters: 1}
		fmt.Fprintf(os.Stderr, "dkbench: huge: %-15s %10.2f ms\n", key, ms)
		return nil
	}
	var profile *dk.Profile
	for d := 1; d <= 3; d++ {
		d := d
		err := record(fmt.Sprintf("extract_%dk", d), func(*rand.Rand) error {
			p, err := dk.Extract(src, d)
			if err == nil && d == 2 {
				profile = p
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	// Construction: the §4.1.2 configuration model. The matching variant's
	// defect-repair loop is quadratic-ish in stuck defects and does not
	// reliably terminate at 10⁶ edges, so the huge tier tracks the
	// pseudograph path (the one the paper itself scales).
	if err := record("pseudograph_2k", func(rng *rand.Rand) error {
		_, err := generate.Pseudograph2K(profile.Joint, generate.Options{Rng: rng})
		return err
	}); err != nil {
		return nil, err
	}
	if err := record("rewire_d2", func(rng *rand.Rand) error {
		_, _, err := generate.Randomize(src, 2, generate.RandomizeOptions{Rng: rng, SwapFactor: 1})
		return err
	}); err != nil {
		return nil, err
	}
	gcc, _ := graph.GiantComponent(src)
	if err := record("metrics_sampled", func(rng *rand.Rand) error {
		_, err := metrics.Summarize(gcc, metrics.SummaryOptions{SkipS2: true, Rng: rng})
		return err
	}); err != nil {
		return nil, err
	}
	sr.PeakRSSMB = peakRSSMB()
	fmt.Fprintf(os.Stderr, "dkbench: huge: peak RSS %.0f MB\n", sr.PeakRSSMB)
	return sr, nil
}

// hugeTopology synthesizes the huge tier's input: the same power-law
// family as the smaller tiers' skitter-like graph, but un-steered and
// with the degree cutoff pinned near the structural one (k_max ≈ 3√n,
// the scale of the measured skitter graph's maximum degree). The
// smaller tiers use datasets.Skitter, whose assortativity/clustering
// steering runs hundreds of millions of rewiring proposals with full
// triangle recounts between chunks — a target-tracking workload in its
// own right, unusable as a fixture build at 10⁶ edges. And above the
// structural cutoff √(k̄·n) a power-law sequence forces degree
// correlations the matching construction must then fight edge by edge.
func hugeTopology(n int, seed int64) (*graph.CSR, error) {
	rng := rand.New(rand.NewSource(seed))
	kMax := int(3 * math.Sqrt(float64(n)))
	if kMax < 3 {
		kMax = 3
	}
	pl, err := stats.NewPowerLaw(2.0, 1, kMax)
	if err != nil {
		return nil, err
	}
	var seq []int
	for attempt := 0; ; attempt++ {
		seq = pl.DegreeSequence(rng, n)
		if dk.Graphical(seq) {
			break
		}
		if attempt > 100 {
			return nil, fmt.Errorf("huge: could not draw a graphical power-law sequence")
		}
	}
	g, err := generate.Matching1K(dk.NewDegreeDist(seq), generate.Options{Rng: rng})
	if err != nil {
		return nil, err
	}
	g, _ = graph.GiantComponent(g)
	return g, nil
}

// peakRSSMB returns the process's high-water resident set in megabytes
// (0 when the platform doesn't report it).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports Maxrss in KiB.
	return float64(ru.Maxrss) / 1024
}

// timeIt runs f once as warm-up (when iters > 1), then iters timed runs
// with fresh identically-seeded RNGs, and returns the mean wall-clock
// milliseconds — the same convention as `dkstore bench`.
func timeIt(iters int, seed int64, f func(rng *rand.Rand) error) (float64, error) {
	if iters > 1 {
		if err := f(rand.New(rand.NewSource(seed))); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(rand.New(rand.NewSource(seed))); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() * 1000 / float64(iters), nil
}

// verifyReport checks that a report file parses, carries the current
// schema, and holds every workload key for every size it reports —
// the CI smoke gate that keeps BENCH_core.json from silently rotting.
func verifyReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	if rep.Schema != schemaVersion {
		return fmt.Errorf("schema %q, want %q", rep.Schema, schemaVersion)
	}
	if len(rep.Sizes) == 0 {
		return fmt.Errorf("no sizes recorded")
	}
	for size, sr := range rep.Sizes {
		if sr == nil || sr.N <= 0 || sr.M <= 0 {
			return fmt.Errorf("size %q: missing topology dimensions", size)
		}
		for _, key := range keysForSize(size) {
			w, ok := sr.Workloads[key]
			if !ok {
				return fmt.Errorf("size %q: workload %q missing", size, key)
			}
			if w.Iters <= 0 || w.MS < 0 {
				return fmt.Errorf("size %q: workload %q has implausible numbers: %+v", size, key, w)
			}
		}
	}
	return nil
}

// verifyAgainst is the per-workload regression gate: every workload of
// every size shared by the fresh report and the baseline must stay
// within factor× of the baseline mean, except measurements below the
// minMS noise floor (sub-millisecond workloads jitter far more than
// factor× between machines). Shared sizes must describe the same
// topology — a gate run on a different -small-n would otherwise compare
// incomparable numbers and pass or fail arbitrarily.
func verifyAgainst(freshPath, basePath string, factor, minMS float64) error {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, err
		}
		return &rep, nil
	}
	fresh, err := load(freshPath)
	if err != nil {
		return err
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	shared := 0
	var violations []string
	for size, fs := range fresh.Sizes {
		bs, ok := base.Sizes[size]
		if !ok {
			continue
		}
		if fs.N != bs.N || fs.M != bs.M {
			return fmt.Errorf("size %q: topology mismatch: fresh n=%d m=%d vs baseline n=%d m=%d",
				size, fs.N, fs.M, bs.N, bs.M)
		}
		shared++
		for _, key := range keysForSize(size) {
			fw, fok := fs.Workloads[key]
			bw, bok := bs.Workloads[key]
			if !fok || !bok {
				continue
			}
			if fw.MS > bw.MS*factor && fw.MS > minMS {
				violations = append(violations,
					fmt.Sprintf("%s/%s: %.2f ms vs baseline %.2f ms (%.1fx > %.1fx)",
						size, key, fw.MS, bw.MS, fw.MS/bw.MS, factor))
			}
		}
	}
	if shared == 0 {
		return fmt.Errorf("no sizes shared with the baseline")
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "dkbench: regression: %s\n", v)
		}
		return fmt.Errorf("%d workload(s) regressed beyond %.1fx", len(violations), factor)
	}
	return nil
}
