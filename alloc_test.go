// Allocation-budget regression tests for the two paths whose per-op
// allocation profile the CSR-first refactor pins down: depth-2 profile
// extraction on the benchmark topology and the binary graph decode
// straight into CSR. Budgets are set ~2x above the measured cost on the
// reference machine — loose enough for Go-runtime drift, tight enough
// that an accidental per-edge or per-node allocation (which multiplies
// the count by orders of magnitude) fails immediately.
package repro_test

import (
	"bytes"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/graph"
)

// extract2KAllocBudget bounds allocations of one depth-2 extraction on
// the ~2000-node skitter-like topology. The pass allocates the profile
// struct, the distribution maps and their growth rehashes — ~30 objects
// measured — never per node or per edge.
const extract2KAllocBudget = 150

// csrDecodeAllocBudget bounds allocations of one ReadBinary decode
// of the same topology: the arena slices, the edge list, and the
// decoder's fixed scratch — ~13 objects measured, O(1) slice headers,
// not O(m) boxes.
const csrDecodeAllocBudget = 64

func benchTopology(t testing.TB) *graph.CSR {
	t.Helper()
	src, err := datasets.Skitter(datasets.SkitterConfig{N: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestExtract2KAllocBudget(t *testing.T) {
	src := benchTopology(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := dk.Extract(src, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > extract2KAllocBudget {
		t.Fatalf("depth-2 extraction allocates %.0f objects/op, budget %d", allocs, extract2KAllocBudget)
	}
}

func TestCSRDecodeAllocBudget(t *testing.T) {
	src := benchTopology(t)
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, src, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := graph.ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > csrDecodeAllocBudget {
		t.Fatalf("CSR decode allocates %.0f objects/op, budget %d", allocs, csrDecodeAllocBudget)
	}
}
