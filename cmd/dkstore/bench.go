package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/store"
)

// benchReport is the schema of BENCH_store.json: the store's perf
// trajectory in one file — binary-vs-text decode of a paper-scale
// topology and cold-recompute-vs-disk-fetch of its profile.
type benchReport struct {
	N           int     `json:"n"`
	M           int     `json:"m"`
	TextBytes   int     `json:"text_bytes"`
	BinaryBytes int     `json:"binary_bytes"`
	SizeRatio   float64 `json:"size_ratio"` // text / binary

	TextDecodeMs   float64 `json:"text_decode_ms"`
	BinaryDecodeMs float64 `json:"binary_decode_ms"`
	DecodeSpeedup  float64 `json:"decode_speedup"` // text / binary

	ProfileD       int     `json:"profile_d"`
	ExtractMs      float64 `json:"profile_extract_ms"`    // cold: recompute from the graph
	DiskFetchMs    float64 `json:"profile_disk_fetch_ms"` // warm: decode from the disk tier
	ProfileSpeedup float64 `json:"profile_speedup"`       // extract / fetch
}

// runBench measures the store's two performance claims on a synthetic
// paper-scale topology (skitter-like, n nodes) and writes the report to
// out. The graph artifacts are staged in the store so the profile fetch
// exercises the same path a restarted server takes.
func runBench(st *store.Store, n, d int, out string) error {
	if d < 0 || d > 3 {
		return fmt.Errorf("bench: depth %d outside 0..3", d)
	}
	fmt.Fprintf(os.Stderr, "bench: synthesizing skitter-like topology n=%d...\n", n)
	// Seed 2: the first seed whose degree sequence avoids a matching
	// deadlock at the paper-scale default size.
	g, err := datasets.Skitter(datasets.SkitterConfig{N: n, Seed: 2})
	if err != nil {
		return err
	}
	rep := benchReport{N: g.N(), M: g.M(), ProfileD: d}

	var text, bin bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		return err
	}
	if err := graph.WriteBinary(&bin, g, nil); err != nil {
		return err
	}
	rep.TextBytes = text.Len()
	rep.BinaryBytes = bin.Len()
	rep.SizeRatio = float64(text.Len()) / float64(bin.Len())

	const iters = 15
	rep.TextDecodeMs, err = timeIt(iters, func() error {
		_, _, err := graph.ReadEdgeList(bytes.NewReader(text.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	rep.BinaryDecodeMs, err = timeIt(iters, func() error {
		_, _, err := graph.ReadBinary(bytes.NewReader(bin.Bytes()))
		return err
	})
	if err != nil {
		return err
	}
	rep.DecodeSpeedup = rep.TextDecodeMs / rep.BinaryDecodeMs

	hash := graph.ContentHash(g, nil)
	if err := st.PutGraph(hash, g, nil); err != nil {
		return err
	}
	var profile *dk.Profile
	rep.ExtractMs, err = timeIt(1, func() error {
		p, err := dk.Extract(g, d)
		profile = p
		return err
	})
	if err != nil {
		return err
	}
	if err := st.PutProfile(hash, profile); err != nil {
		return err
	}
	rep.DiskFetchMs, err = timeIt(iters, func() error {
		_, err := st.GetProfile(hash, d)
		return err
	})
	if err != nil {
		return err
	}
	rep.ProfileSpeedup = rep.ExtractMs / rep.DiskFetchMs

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"bench: n=%d m=%d | text %d B -> binary %d B (%.1fx smaller) | decode %.1f ms -> %.1f ms (%.1fx) | profile d%d extract %.1f ms -> fetch %.2f ms (%.0fx)\n",
		rep.N, rep.M, rep.TextBytes, rep.BinaryBytes, rep.SizeRatio,
		rep.TextDecodeMs, rep.BinaryDecodeMs, rep.DecodeSpeedup,
		d, rep.ExtractMs, rep.DiskFetchMs, rep.ProfileSpeedup)
	fmt.Printf("wrote %s\n", out)
	return nil
}

// timeIt runs f once to warm up, then iters timed runs, and returns the
// mean wall-clock milliseconds. Single-shot measurements (iters == 1,
// used for the expensive profile extraction) skip the warm-up — for a
// deterministic CPU-bound run it would only double the bench's cost.
func timeIt(iters int, f func() error) (float64, error) {
	if iters > 1 {
		if err := f(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() * 1000 / float64(iters), nil
}
