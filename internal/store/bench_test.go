package store

import (
	"bytes"
	"testing"

	"repro/internal/dk"
	"repro/internal/graph"
)

// The store's perf trajectory, go-bench form (cmd/dkstore bench is the
// JSON-emitting runner for the same questions at paper scale):
//
//	BenchmarkGraphDecodeText vs BenchmarkGraphDecodeBinary — the wire
//	  formats racing on the same topology
//	BenchmarkProfileFetchCold vs BenchmarkProfileFetchWarm — recomputing
//	  a profile vs fetching it from the disk tier

// benchTopology is a shared mid-size random graph (the go benches favor
// quick iteration; dkstore bench runs the paper-scale version).
func benchTopology() *graph.CSR {
	return testGraph(3000, 9000, 42)
}

func BenchmarkGraphDecodeText(b *testing.B) {
	g := benchTopology()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ReadEdgeList(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphDecodeBinary(b *testing.B) {
	g := benchTopology()
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileFetchCold measures recomputing the profile from the
// graph — what every request pays without the artifact store.
func BenchmarkProfileFetchCold(b *testing.B) {
	g := benchTopology()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dk.Extract(g, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileFetchWarm measures fetching the stored profile from the
// disk tier — what a restarted server pays instead.
func BenchmarkProfileFetchWarm(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	g := benchTopology()
	hash := graph.ContentHash(g, nil)
	p, err := dk.Extract(g, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutProfile(hash, p); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.GetProfile(hash, 2); err != nil {
			b.Fatal(err)
		}
	}
}
