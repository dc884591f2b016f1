// visualize: regenerate the raw material of the paper's Figure 3 — DOT
// renderings of the HOT topology and its 0K..3K-random counterparts with
// the high-degree nodes highlighted, so the hub migration from core
// (1K) back to periphery (3K) is visible in any Graphviz viewer:
//
//	go run ./examples/visualize -outdir /tmp/fig3
//	neato -Tsvg /tmp/fig3/hot-2K.dot > hot-2K.svg
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/datasets"
	"repro/internal/generate"
	"repro/internal/graph"
)

func main() {
	outdir := flag.String("outdir", ".", "directory for the DOT files")
	hubThreshold := flag.Int("hub-threshold", 15, "highlight nodes with degree >= threshold")
	flag.Parse()

	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		log.Fatal(err)
	}
	// A smaller HOT instance keeps the drawings legible.
	hot, _, err := datasets.HOT(datasets.HOTConfig{
		Hosts: 220, AccessRouters: 24, Gateways: 16, CoreSize: 8, ExtraLinks: 12, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := write(*outdir, "hot-original.dot", "HOT", hot, *hubThreshold); err != nil {
		log.Fatal(err)
	}
	for d := 0; d <= 3; d++ {
		rng := rand.New(rand.NewSource(int64(d) + 40))
		random, _, err := generate.Randomize(hot, d, generate.RandomizeOptions{Rng: rng})
		if err != nil {
			log.Fatal(err)
		}
		name := fmt.Sprintf("hot-%dK.dot", d)
		if err := write(*outdir, name, fmt.Sprintf("%dK", d), random, *hubThreshold); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote 5 DOT files to %s — render with: neato -Tsvg <file>\n", *outdir)
}

func write(dir, name, title string, g *graph.CSR, hubThreshold int) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.WriteDOT(f, g, title, hubThreshold)
}
