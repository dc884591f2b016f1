package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"

	"repro/internal/cli"
)

// capture runs one local dkctl subcommand and returns what it printed.
func capture(t *testing.T, cmd func(*cli.Common, []string) error, args ...string) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = cmd(&cli.Common{}, args)
	os.Stdout = stdout
	w.Close()
	got := <-out
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCommandGolden pins the SHA-256 of the JSON that the analysis
// subcommands print for the HOT reference topology. These documents are
// the CLI's only report format, so any drift in a summary metric, a
// distance, a profile field or the rendering shows up here.
func TestCommandGolden(t *testing.T) {
	cases := []struct {
		name string
		cmd  func(*cli.Common, []string) error
		args []string
		want string
	}{
		{"extract -metrics", cmdExtract, []string{"-metrics", "dataset:hot:7"},
			"49da21b30cf17ea3f784bf4b8f555703deac6557e7a069b711abb06c6a3516e5"},
		{"compare", cmdCompare, []string{"dataset:hot:7", "dataset:hot:8"},
			"57b7547f4d6e18c13f9c45a6b7b1ea41e42be845062ae14be3299984b7e3062d"},
		{"generate -compare", cmdGenerate, []string{"-compare", "dataset:hot:7"},
			"047f7ce25f0d15960f67f8d3d57fa4456de037b8c58ce253370f5ebfbf5206c9"},
		{"generate -compare -method targeting", cmdGenerate,
			[]string{"-compare", "-method", "targeting", "-replicas", "2", "-seed", "9", "dataset:hot:7"},
			"3efa66405fe840a88e27399114add8fd6c475b071b3e856ffe7ff1516bb889e5"},
	}
	for _, tc := range cases {
		sum := sha256.Sum256(capture(t, tc.cmd, tc.args...))
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("dkctl %s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}
