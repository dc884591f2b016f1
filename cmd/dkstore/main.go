// Command dkstore administers a dkserved persistent artifact store: the
// content-addressed directory of binary graph and profile artifacts plus
// the job journal that -data-dir points dkserved at (see docs/STORAGE.md
// for the format spec and GC semantics).
//
//	dkstore -data-dir DIR ls                 list stored graphs and profile depths
//	dkstore -data-dir DIR info HASH          artifact detail for one graph
//	dkstore -data-dir DIR gc                 sweep temp/corrupt/orphaned artifacts
//	dkstore -data-dir DIR import FILE        text edge list -> binary artifact
//	dkstore -data-dir DIR export HASH        binary artifact -> text edge list (stdout)
//	dkstore -data-dir DIR jobs               folded job journal states
//	dkstore -data-dir DIR bench              decode/fetch benchmark -> BENCH_store.json
//
// import/export bridge the two wire formats: import parses a text edge
// list (the format every CLI and the HTTP API accept) and stores it
// binary; export writes the stored graph back out as text with its
// original node labels, so round-tripping through the store is lossless.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/graph"
	"repro/internal/store"
)

func main() {
	dataDir := flag.String("data-dir", "", "artifact store directory (required)")
	showVersion := flag.Bool("version", false, "print version and exit")
	benchN := flag.Int("bench-n", 9204, "bench: synthetic topology size (default: paper-scale skitter)")
	benchD := flag.Int("bench-d", 2, "bench: profile extraction depth 0..3")
	benchOut := flag.String("bench-out", "BENCH_store.json", "bench: output path for the JSON report")
	flag.Usage = usage
	flag.Parse()
	// dkstore is local by construction: it administers the on-disk
	// artifact directory itself, which a remote server cannot do for us.
	if cli.Version("dkstore", *showVersion) {
		return
	}
	args := flag.Args()
	if *dataDir == "" || len(args) == 0 {
		usage()
		os.Exit(2)
	}
	st, err := store.Open(*dataDir)
	if err != nil {
		fatal(err)
	}
	defer st.Close()

	switch cmd := args[0]; cmd {
	case "ls":
		err = runLs(st)
	case "info":
		err = withHashArg(args, func(h string) error { return runInfo(st, h) })
	case "gc":
		err = runGC(st)
	case "import":
		if len(args) != 2 {
			err = fmt.Errorf("usage: dkstore -data-dir DIR import FILE")
		} else {
			err = runImport(st, args[1])
		}
	case "export":
		err = withHashArg(args, func(h string) error { return runExport(st, h) })
	case "jobs":
		err = runJobs(st)
	case "bench":
		err = runBench(st, *benchN, *benchD, *benchOut)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `dkstore administers a dkserved artifact store (-data-dir).

usage: dkstore -data-dir DIR COMMAND [ARG]

commands:
  ls             list stored graphs with sizes and profile depths
  info HASH      detail for one graph (checksum-verified)
  gc             remove temp, corrupt, orphaned artifacts; compact journal
  import FILE    parse a text edge list and store it binary (prints hash)
  export HASH    write a stored graph as a text edge list to stdout
  jobs           print folded job-journal states
  bench          decode/fetch benchmark; writes -bench-out (BENCH_store.json)

flags:
`)
	flag.PrintDefaults()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dkstore: %v\n", err)
	os.Exit(1)
}

func withHashArg(args []string, f func(hash string) error) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: dkstore -data-dir DIR %s HASH", args[0])
	}
	hash := args[1]
	if !strings.HasPrefix(hash, "sha256:") {
		hash = "sha256:" + hash
	}
	return f(hash)
}

func runLs(st *store.Store) error {
	infos, err := st.ListGraphs()
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Println("store is empty")
		return nil
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-71s %9s %9s %10s %s\n", "HASH", "N", "M", "BYTES", "PROFILES")
	for _, gi := range infos {
		depths := make([]string, 0, len(gi.ProfileDepths))
		for _, d := range gi.ProfileDepths {
			depths = append(depths, fmt.Sprintf("d%d", d))
		}
		prof := strings.Join(depths, ",")
		if prof == "" {
			prof = "-"
		}
		fmt.Fprintf(w, "%-71s %9d %9d %10d %s\n", gi.Hash, gi.N, gi.M, gi.Bytes, prof)
	}
	return nil
}

func runInfo(st *store.Store, hash string) error {
	g, labels, err := st.GetGraph(hash, graph.ReadLimits{})
	if err != nil {
		return err
	}
	fmt.Printf("hash:       %s\n", hash)
	fmt.Printf("nodes:      %d\n", g.N())
	fmt.Printf("edges:      %d\n", g.M())
	fmt.Printf("avg degree: %.4f\n", g.AvgDegree())
	fmt.Printf("max degree: %d\n", g.MaxDegree())
	fmt.Printf("labels:     %v\n", labels != nil)
	if got := graph.ContentHash(g, labels); got != hash {
		fmt.Printf("WARNING: content re-hash %s does not match artifact name\n", got)
	}
	depths := st.ProfileDepths(hash)
	if len(depths) == 0 {
		fmt.Println("profiles:   none")
		return nil
	}
	for _, d := range depths {
		p, err := st.GetProfile(hash, d)
		if err != nil {
			fmt.Printf("profile d%d: UNREADABLE: %v\n", d, err)
			continue
		}
		status := "ok"
		if err := p.Validate(); err != nil {
			status = "INVALID: " + err.Error()
		}
		fmt.Printf("profile d%d: stored depth %d, %s\n", d, p.D, status)
	}
	return nil
}

func runGC(st *store.Store) error {
	rep, err := st.GC()
	// Print whatever the sweep accomplished even if it ended in error.
	fmt.Printf("temp files removed:     %d\n", rep.TempFiles)
	fmt.Printf("corrupt graphs removed: %d\n", rep.CorruptGraphs)
	fmt.Printf("corrupt profiles:       %d\n", rep.CorruptProfiles)
	fmt.Printf("orphan profiles:        %d\n", rep.OrphanProfiles)
	fmt.Printf("foreign files removed:  %d\n", rep.ForeignFiles)
	if rep.JournalSkipped {
		fmt.Println("journal compaction:     skipped (journal owned by a live server)")
	} else {
		fmt.Printf("journal records purged: %d\n", rep.JournalDropped)
	}
	return err
}

func runImport(st *store.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, labels, err := graph.ReadEdgeList(bufio.NewReader(f))
	if err != nil {
		return err
	}
	hash := graph.ContentHash(g, labels)
	if err := st.PutGraph(hash, g, labels); err != nil {
		return err
	}
	fmt.Println(hash)
	return nil
}

func runExport(st *store.Store, hash string) error {
	g, labels, err := st.GetGraph(hash, graph.ReadLimits{})
	if err != nil {
		return err
	}
	// The canonical edge list re-applies the stored label table, so the
	// export round-trips the original edge set and its content hash.
	return graph.WriteCanonicalEdgeList(os.Stdout, g, labels)
}

func runJobs(st *store.Store) error {
	states, err := st.Journal().Replay()
	if err != nil {
		return err
	}
	if len(states) == 0 {
		fmt.Println("journal is empty")
		return nil
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "%-10s %-10s %-10s %s\n", "ID", "KIND", "STATUS", "ERROR")
	for _, s := range states {
		fmt.Fprintf(w, "%-10s %-10s %-10s %s\n", s.ID, s.Kind, s.Status, s.Error)
	}
	return nil
}
