// Command dkgen generates dK-random graphs, locally through the pkg/dk
// facade or against a remote dK service with -server. Given an input
// graph it can either produce dK-randomized counterparts (the paper's
// dK-randomizing rewiring) or extract the dK-distribution and construct
// fresh graphs from it by any supported method:
//
//	dkgen -d 2 -method randomize   -in skitter.txt -out out.txt
//	dkgen -d 2 -method pseudograph -in skitter.txt -out out.txt
//	dkgen -d 3 -method targeting   -in skitter.txt -out out.txt
//	dkgen -server http://localhost:8080 -d 2 -replicas 10 -in as.txt -out ens.txt
//
// Without -in, it synthesizes a reference topology first:
//
//	dkgen -dataset hot     -d 1 -method matching -out out.txt
//	dkgen -dataset skitter -skitter-n 2000 -d 2 -method targeting -out out.txt
//
// With -dot the output is Graphviz DOT (hubs highlighted) instead of an
// edge list, which regenerates the raw material of the paper's Figure 3;
// -dot and -connect are post-processing of the generated graphs and are
// local-only. With -replicas N > 1 the ensemble is written to <out>.0,
// <out>.1, … — one derived seed per replica, deterministic for a given
// -seed at any -workers value, and identical in local and remote mode.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/parallel"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
)

const tool = "dkgen"

func main() {
	common := &cli.Common{}
	depth := flag.Int("d", 2, "dK depth (0..3)")
	method := flag.String("method", "randomize", "randomize | stochastic | pseudograph | matching | targeting")
	in := flag.String("in", "", "input edge-list file (omit to use -dataset)")
	dataset := flag.String("dataset", "skitter", "synthetic input when -in is omitted: skitter | hot | paw | petersen")
	skitterN := flag.Int("skitter-n", 2000, "node count for the synthetic skitter-like dataset")
	out := flag.String("out", "-", "output file (- = stdout); with -replicas > 1, files <out>.<i>")
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of an edge list (local only)")
	hubThreshold := flag.Int("hub-threshold", 10, "DOT: highlight nodes with degree >= threshold (0 = off)")
	connect := flag.Bool("connect", false, "reconnect the result with degree-preserving swaps (Viger–Latapy; local only)")
	verbose := flag.Bool("v", false, "print per-replica rewiring stats with the rejection-reason breakdown to stderr (method=randomize, local only); each rejection counts under the first check it fails: self-loop, jdd-mismatch, duplicate-edge, census-changed, objective, disconnected")
	seed := flag.Int64("seed", 1, "random seed")
	replicas := flag.Int("replicas", 1, "number of independent graphs to generate (ensemble fan-out)")
	flag.IntVar(&common.Workers, "workers", 0, "worker goroutines for the replica fan-out (0 = all cores; results are identical for any value)")
	flag.StringVar(&common.Server, "server", "", "dkserved base URL (empty = run locally)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if cli.Version(tool, *showVersion) {
		return
	}
	common.Apply()

	cfg := config{
		depth: *depth, method: *method, in: *in, dataset: *dataset,
		skitterN: *skitterN, out: *out, dot: *dot, hubThreshold: *hubThreshold,
		connect: *connect, verbose: *verbose, seed: *seed, replicas: *replicas,
	}
	if err := run(common, cfg); err != nil {
		cli.Fatal(tool, err)
	}
}

type config struct {
	depth        int
	method       string
	in           string
	dataset      string
	skitterN     int
	out          string
	dot          bool
	hubThreshold int
	connect      bool
	verbose      bool
	seed         int64
	replicas     int
}

// sourceRef builds the input graph reference from -in or -dataset.
func sourceRef(cfg config) (dkapi.GraphRef, error) {
	if cfg.in != "" {
		return cli.LoadRef(dkapi.GraphRef{File: cfg.in})
	}
	ref := dkapi.GraphRef{Dataset: cfg.dataset, Seed: cfg.seed}
	if cfg.dataset == "skitter" {
		ref.N = cfg.skitterN
	}
	return ref, nil
}

func run(common *cli.Common, cfg config) error {
	if cfg.replicas > 1 && (cfg.out == "" || cfg.out == "-") {
		return fmt.Errorf("-replicas %d needs -out (stdout cannot hold an ensemble)", cfg.replicas)
	}
	ref, err := sourceRef(cfg)
	if err != nil {
		return err
	}
	if common.Remote() {
		if cfg.dot || cfg.connect {
			return fmt.Errorf("-dot and -connect are local post-processing; drop -server to use them")
		}
		return runRemote(common, cfg, ref)
	}
	return runLocal(cfg, ref)
}

// runLocal generates through the facade's streaming fan-out — each
// replica is built, post-processed (-connect, -dot), written, and
// released, so peak memory stays one graph per worker — not the whole
// ensemble.
func runLocal(cfg config, ref dkapi.GraphRef) error {
	src, err := cli.ResolveLocal(ref)
	if err != nil {
		return err
	}
	opts := dk.GenerateOptions{
		D: &cfg.depth, Method: cfg.method, Replicas: cfg.replicas, Seed: cfg.seed,
	}
	if cfg.verbose {
		// One Fprintf per replica keeps lines atomic under the concurrent
		// replica fan-out.
		opts.OnRewireStats = func(i int, st dk.RewireStats) {
			fmt.Fprintf(os.Stderr,
				"dkgen: replica %d: attempts=%d accepted=%d reverted=%d rejected[self-loop=%d duplicate-edge=%d jdd-mismatch=%d census-changed=%d objective=%d disconnected=%d]\n",
				i, st.Attempts, st.Accepted, st.Reverted,
				st.RejectedSelfLoop, st.RejectedDuplicateEdge, st.RejectedJDDMismatch,
				st.RejectedCensusChanged, st.RejectedObjective, st.RejectedDisconnected)
		}
	}
	session := dk.NewSession()
	return session.GenerateStream(cli.Ctx(), src, opts, func(i int, g *dk.Graph) error {
		if cfg.connect {
			// One derived seed per replica, offset past the generation
			// indices: a shared seed would correlate the swap sequences
			// across what are meant to be independent samples.
			connected, isolated, err := dk.Connect(g, parallel.SubSeed(cfg.seed, cfg.replicas+i))
			if err != nil {
				return fmt.Errorf("reconnect: %w", err)
			}
			if isolated > 0 {
				fmt.Fprintf(os.Stderr, "dkgen: %d isolated nodes cannot be attached degree-preservingly\n", isolated)
			}
			g = connected
		}
		return writeResult(replicaPath(cfg, i), g, cfg)
	})
}

// runRemote submits the generation and downloads the replica stream
// into the output files — the same bytes a local run writes.
func runRemote(common *cli.Common, cfg config, ref dkapi.GraphRef) error {
	c, err := common.Client()
	if err != nil {
		return err
	}
	if ref, err = cli.RemoteRef(c, ref); err != nil {
		return err
	}
	_, jobID, err := c.GenerateWait(cli.Ctx(), dkapi.GenerateRequest{
		Source: ref, D: &cfg.depth, Method: cfg.method,
		Replicas: cfg.replicas, Seed: cfg.seed,
	})
	if err != nil {
		return err
	}
	body, err := c.JobResult(cli.Ctx(), jobID)
	if err != nil {
		return err
	}
	defer body.Close()
	// -dot is rejected in remote mode, so the downloaded edge lists are
	// the output; stream them straight to the replica files.
	if cfg.replicas <= 1 && (cfg.out == "" || cfg.out == "-") {
		graphs, err := dk.SplitReplicaStream(body)
		if err != nil {
			return err
		}
		return writeResult(cfg.out, graphs[0], cfg)
	}
	return cli.SplitStreamToFiles(body, func(marker string) (string, bool) {
		var i int
		if _, err := fmt.Sscanf(marker, "# replica %d", &i); err != nil {
			return "", false
		}
		return replicaPath(cfg, i), true
	})
}

// replicaPath names replica i's output file ("<out>.<i>" for ensembles,
// -out itself for a single graph).
func replicaPath(cfg config, i int) string {
	if cfg.replicas <= 1 {
		return cfg.out
	}
	return fmt.Sprintf("%s.%d", cfg.out, i)
}

func writeResult(out string, g *dk.Graph, cfg config) error {
	w, closeFn, err := openOutput(out)
	if err != nil {
		return err
	}
	defer closeFn()
	if cfg.dot {
		return g.WriteDOT(w, fmt.Sprintf("%dK", cfg.depth), cfg.hubThreshold)
	}
	return g.WriteEdgeList(w)
}

func openOutput(out string) (io.Writer, func(), error) {
	if out == "" || out == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}
