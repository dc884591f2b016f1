// Package cli carries the shared plumbing of every command-line tool in
// this repository: version/workers flag handling, the local-vs-remote
// execution switch (-server), deterministic JSON rendering, and graph
// reference loading. Each cmd/ binary is a thin flag parser over this
// package plus the pkg/dk facade (local) or pkg/dkclient SDK (remote),
// so the two execution modes cannot drift apart.
package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/parallel"
	"repro/pkg/dk"
	"repro/pkg/dkapi"
	"repro/pkg/dkclient"
)

// Common is the flag set every tool shares.
type Common struct {
	// Workers is the process worker budget (0 = all cores). Results are
	// identical at any value.
	Workers int
	// Server is the base URL of a dkserved instance; empty = local
	// in-process execution through pkg/dk.
	Server string
}

// Apply installs the worker budget.
func (c Common) Apply() {
	w := c.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	parallel.SetWorkers(w)
}

// Remote reports whether a -server URL was given.
func (c Common) Remote() bool { return c.Server != "" }

// Client builds the SDK client for the configured server.
func (c Common) Client() (*dkclient.Client, error) {
	return dkclient.New(c.Server)
}

// Version prints the version line and reports whether the flag was set
// (the caller returns immediately when it was).
func Version(tool string, flagSet bool) bool {
	if flagSet {
		fmt.Println(tool + " " + dkapi.Version)
	}
	return flagSet
}

// Fatal prints "tool: err" and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// PrintJSON renders v as indented JSON with a trailing newline — the
// one rendering every tool uses, so local and remote runs of the same
// operation emit byte-identical output.
func PrintJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// LoadRef materializes a graph reference for transport: file references
// are read and inlined as edge lists (so the same bytes reach local and
// remote executors), everything else passes through.
func LoadRef(ref dkapi.GraphRef) (dkapi.GraphRef, error) {
	if ref.File == "" {
		return ref, nil
	}
	g, err := dk.ReadGraphFile(ref.File)
	if err != nil {
		return dkapi.GraphRef{}, err
	}
	return dkapi.GraphRef{Edges: g.Edges()}, nil
}

// LoadPipeline reads a pipeline spec from a JSON file ("-" = stdin) and
// inlines every file reference.
func LoadPipeline(path string) (dkapi.PipelineRequest, error) {
	var req dkapi.PipelineRequest
	var data []byte
	var err error
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return req, err
	}
	if err := json.Unmarshal(data, &req); err != nil {
		return req, fmt.Errorf("parse pipeline %s: %w", path, err)
	}
	for i := range req.Steps {
		st := &req.Steps[i]
		for _, ref := range []**dkapi.GraphRef{&st.Source, &st.A, &st.B} {
			if *ref == nil {
				continue
			}
			resolved, err := LoadRef(**ref)
			if err != nil {
				return req, fmt.Errorf("step %q: %w", st.ID, err)
			}
			**ref = resolved
		}
		for j := range st.Ensemble {
			resolved, err := LoadRef(st.Ensemble[j])
			if err != nil {
				return req, fmt.Errorf("step %q: ensemble[%d]: %w", st.ID, j, err)
			}
			st.Ensemble[j] = resolved
		}
	}
	return req, nil
}

// GraphArg turns a CLI positional argument into a graph reference:
// "dataset:name" (optionally "dataset:name:seed[:n]") selects a
// built-in dataset, everything else is an edge-list file path ("-" =
// stdin). Malformed seed/n suffixes are errors, not silent zeros — a
// typo must not synthesize a plausible-looking wrong graph.
func GraphArg(arg string) (dkapi.GraphRef, error) {
	rest, ok := strings.CutPrefix(arg, "dataset:")
	if !ok {
		return dkapi.GraphRef{File: arg}, nil
	}
	parts := strings.Split(rest, ":")
	if len(parts) > 3 {
		return dkapi.GraphRef{}, fmt.Errorf("dataset reference %q: want dataset:name[:seed[:n]]", arg)
	}
	ref := dkapi.GraphRef{Dataset: parts[0]}
	var err error
	if len(parts) > 1 {
		if ref.Seed, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
			return dkapi.GraphRef{}, fmt.Errorf("dataset reference %q: seed %q is not an integer", arg, parts[1])
		}
	}
	if len(parts) > 2 {
		if ref.N, err = strconv.Atoi(parts[2]); err != nil {
			return dkapi.GraphRef{}, fmt.Errorf("dataset reference %q: n %q is not an integer", arg, parts[2])
		}
	}
	return ref, nil
}

// LoadGraphArg is GraphArg + LoadRef: parse the positional argument and
// inline any file reference.
func LoadGraphArg(arg string) (dkapi.GraphRef, error) {
	ref, err := GraphArg(arg)
	if err != nil {
		return dkapi.GraphRef{}, err
	}
	return LoadRef(ref)
}

// RemoteRef prepares a reference for a remote request: inline edge
// lists are content-hashed locally and uploaded only if the server
// lacks them (dkclient.EnsureGraph), so repeated invocations against
// the same topology ship a hash, not the graph. Other reference forms
// pass through.
func RemoteRef(c *dkclient.Client, ref dkapi.GraphRef) (dkapi.GraphRef, error) {
	if ref.Edges == "" {
		return ref, nil
	}
	info, _, err := c.EnsureGraph(Ctx(), ref.Edges)
	if err != nil {
		return dkapi.GraphRef{}, err
	}
	return dkapi.GraphRef{Hash: info.Hash}, nil
}

// ResolveLocal resolves a loaded (file-free) reference in a local
// session — the session interns it so later session calls can use the
// returned graph.
func ResolveLocal(ref dkapi.GraphRef) (*dk.Graph, error) {
	switch {
	case ref.Edges != "":
		return dk.ParseGraph(ref.Edges)
	case ref.Dataset != "":
		return dk.DatasetGraph(ref.Dataset, ref.Seed, ref.N)
	case ref.Hash != "":
		return nil, fmt.Errorf("hash references need -server (local sessions are per-invocation)")
	default:
		return nil, fmt.Errorf("empty graph reference")
	}
}

// Ctx returns the base context for CLI operations.
func Ctx() context.Context { return context.Background() }

// SplitStreamToFiles splits a bulk job-result stream into files without
// holding more than one line in memory: each marker line accepted by
// pick starts a new file; all other lines are copied verbatim into the
// current file, so the written bytes match what a local run writes with
// WriteEdgeList.
func SplitStreamToFiles(r io.Reader, pick func(marker string) (string, bool)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *os.File
	var buf *bufio.Writer
	closeCur := func() error {
		if cur == nil {
			return nil
		}
		flushErr := buf.Flush()
		closeErr := cur.Close()
		cur, buf = nil, nil
		if flushErr != nil {
			return flushErr
		}
		return closeErr
	}
	defer closeCur()
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			if path, ok := pick(line); ok {
				if err := closeCur(); err != nil {
					return err
				}
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				cur, buf = f, bufio.NewWriter(f)
				continue
			}
		}
		if cur == nil {
			return fmt.Errorf("bulk result did not start with a replica marker (got %q)", line)
		}
		if _, err := fmt.Fprintln(buf, line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return closeCur()
}

// RemotePipelineRefs runs every external inline-edges reference of a
// pipeline through RemoteRef, so repeated submissions of a spec built
// from local files ship content hashes instead of re-uploading the
// topologies (and stay under the server's body cap).
func RemotePipelineRefs(c *dkclient.Client, req *dkapi.PipelineRequest) error {
	for i := range req.Steps {
		st := &req.Steps[i]
		for _, ref := range []*dkapi.GraphRef{st.Source, st.A, st.B} {
			if ref == nil {
				continue
			}
			resolved, err := RemoteRef(c, *ref)
			if err != nil {
				return fmt.Errorf("step %q: %w", st.ID, err)
			}
			*ref = resolved
		}
		for j := range st.Ensemble {
			resolved, err := RemoteRef(c, st.Ensemble[j])
			if err != nil {
				return fmt.Errorf("step %q: ensemble[%d]: %w", st.ID, j, err)
			}
			st.Ensemble[j] = resolved
		}
	}
	return nil
}
