// Command dkrepro regenerates the tables and figures of the paper's
// evaluation (Section 5) on the synthetic reference topologies.
//
//	dkrepro                      # run everything at small scale
//	dkrepro -exp table6,fig8     # selected experiments
//	dkrepro -scale paper         # paper-sized graphs (slow)
//	dkrepro -seeds 10 -seed 99   # averaging width and base seed
//	dkrepro -workers 4           # bound the worker pool (default: all cores)
//
// Output is plain text: tables match the paper's table rows; figures are
// printed as aligned x/series matrices ready for plotting. The tests in
// internal/experiments pin the qualitative shape of Table 5, Fig. 3 and
// Fig. 8 at small scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	common := &cli.Common{}
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all' (known: "+strings.Join(experiments.IDs(), ",")+")")
	scale := flag.String("scale", "small", "small | paper")
	seeds := flag.Int("seeds", 0, "graphs averaged per cell (0 = scale default)")
	seed := flag.Int64("seed", 42, "base random seed")
	flag.IntVar(&common.Workers, "workers", 0, "worker goroutines for metric sweeps and seed/topology fan-out (0 = all cores; results are identical for any value)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if cli.Version("dkrepro", *showVersion) {
		return
	}
	// Experiments drive the whole evaluation matrix in-process; there is
	// no -server mode (the remote API serves single operations and
	// pipelines, not the paper's table/figure sweeps).
	common.Apply()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	cfg := experiments.Config{Seeds: *seeds, Seed: *seed}
	switch *scale {
	case "small":
		cfg.Scale = experiments.ScaleSmall
	case "paper":
		cfg.Scale = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "dkrepro: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	lab := experiments.NewLab(cfg)

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		if err := experiments.Run(lab, id, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dkrepro:", err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
