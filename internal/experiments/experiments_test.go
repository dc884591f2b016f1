package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// tinyLab returns a lab small enough for unit testing; dataset-quality
// assertions live in internal/datasets.
func tinyLab() *Lab {
	l := NewLab(Config{Scale: ScaleSmall, Seeds: 1, Seed: 7})
	return l
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table3", "table4", "table5", "table6", "table7", "table8",
		"fig3", "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "fig9",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(Registry) < len(want) {
		t.Errorf("registry has %d entries, want >= %d", len(Registry), len(want))
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(tinyLab(), "nope", &buf); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"metric", "a", "b"},
		Rows:   [][]string{{"kbar", "1.0", "2.0"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "metric", "kbar"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesRender(t *testing.T) {
	s := &Series{
		ID:      "y",
		Title:   "demo series",
		XLabel:  "x",
		Columns: []string{"a", "b"},
		X:       []float64{1, 2},
		Y:       [][]float64{{0.5, 0.25}, {0.125, 0.0625}},
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "demo series") || !strings.Contains(out, "0.5") {
		t.Errorf("rendered series wrong:\n%s", out)
	}
}

// TestTable5HOT checks the Table 5 shape on the real HOT-like graph: the
// rewiring space shrinks by orders of magnitude as d grows.
func TestTable5HOT(t *testing.T) {
	l := tinyLab()
	tbl, err := l.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	var possible, iso [4]int64
	for i, row := range tbl.Rows {
		v, err := strconv.ParseInt(row[1], 10, 64)
		if err != nil {
			t.Fatalf("row %d count %q: %v", i, row[1], err)
		}
		possible[i] = v
		if i > 0 {
			w, err := strconv.ParseInt(row[2], 10, 64)
			if err != nil {
				t.Fatalf("row %d iso count %q: %v", i, row[2], err)
			}
			iso[i] = w
		}
	}
	// Paper's shape: the rewiring space shrinks monotonically with d.
	if !(possible[0] > possible[1] && possible[1] > possible[2] && possible[2] > possible[3]) {
		t.Errorf("possible counts not strictly decreasing: %v", possible)
	}
	if possible[0] < 1e6 {
		t.Errorf("0K count %d implausibly small", possible[0])
	}
	// The paper's dramatic d=3 collapse shows in the isomorphism-
	// discounted column (leaf relabelings are isomorphic no-ops that
	// remain census-preserving at every d; see generate.RewiringCount).
	if iso[3] > iso[2]/10 {
		t.Errorf("discounted 3K count %d not dramatically smaller than 2K %d", iso[3], iso[2])
	}
}

// TestFig3HubPlacement checks the headline qualitative claim: hubs are
// central in 1K-random graphs but peripheral in the original HOT graph.
func TestFig3HubPlacement(t *testing.T) {
	l := tinyLab()
	tbl, err := l.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	ratios := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad ratio %q", row[1])
		}
		ratios[row[0]] = v
	}
	if ratios["1K-random"] >= ratios["original"] {
		t.Errorf("expected 1K-random hubs more central than original: 1K=%v orig=%v",
			ratios["1K-random"], ratios["original"])
	}
	if ratios["3K-random"] < 0.95*ratios["original"] || ratios["3K-random"] > 1.05*ratios["original"] {
		t.Errorf("3K-random hub placement should match original: 3K=%v orig=%v",
			ratios["3K-random"], ratios["original"])
	}
}

// TestFig8Shape: the distance-distribution series for HOT must exist for
// all variants and the 3K column must track the original closely.
func TestFig8Shape(t *testing.T) {
	l := tinyLab()
	s, err := l.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Columns) != 5 {
		t.Fatalf("columns = %v", s.Columns)
	}
	if len(s.X) == 0 {
		t.Fatal("empty series")
	}
	// Column indices: 0..3 are 0K..3K, 4 = original.
	var dev3K, dev0K float64
	for i := range s.X {
		dev3K += abs(s.Y[i][3] - s.Y[i][4])
		dev0K += abs(s.Y[i][0] - s.Y[i][4])
	}
	if dev3K >= dev0K {
		t.Errorf("3K (dev %v) should fit the original better than 0K (dev %v)", dev3K, dev0K)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSize4Convergence: the 3K-random size-4 census must match the
// original in every class (the d=3 sufficiency evidence).
func TestSize4Convergence(t *testing.T) {
	l := tinyLab()
	tbl, err := l.Size4()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row[1:]
	}
	orig := byName["original"]
	three := byName["3K-random"]
	if orig == nil || three == nil {
		t.Fatalf("missing rows: %v", tbl.Rows)
	}
	for i := range orig {
		ov, _ := strconv.ParseInt(orig[i], 10, 64)
		tv, _ := strconv.ParseInt(three[i], 10, 64)
		if ov == 0 {
			if tv != 0 {
				t.Errorf("class %s: 3K=%d, original=0", tbl.Header[i+1], tv)
			}
			continue
		}
		rel := float64(tv-ov) / float64(ov)
		if rel < -0.02 || rel > 0.02 {
			t.Errorf("class %s: 3K=%d vs original=%d (rel %.3f)", tbl.Header[i+1], tv, ov, rel)
		}
	}
	one := byName["1K-random"]
	// 1K must differ noticeably in at least one triangle-bearing class.
	diverged := false
	for i := range orig {
		ov, _ := strconv.ParseInt(orig[i], 10, 64)
		tv, _ := strconv.ParseInt(one[i], 10, 64)
		if ov > 0 && absF(float64(tv-ov)/float64(ov)) > 0.1 {
			diverged = true
		}
	}
	if !diverged {
		t.Error("1K-random census suspiciously identical to original")
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestAppSim: protocol outcomes on the 3K ensemble track the original.
func TestAppSim(t *testing.T) {
	l := tinyLab()
	tbl, err := l.AppSim()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range tbl.Rows {
		byName[row[0]] = row[1:]
	}
	gccOrig, _ := strconv.ParseFloat(byName["original"][0], 64)
	gcc0K, _ := strconv.ParseFloat(byName["0K-random"][0], 64)
	gcc3K, _ := strconv.ParseFloat(byName["3K-random"][0], 64)
	if absF(gcc3K-gccOrig) > 0.15 {
		t.Errorf("3K attack response %v far from original %v", gcc3K, gccOrig)
	}
	if gcc0K < gccOrig+0.3 {
		t.Errorf("0K attack response %v should be far more robust than original %v", gcc0K, gccOrig)
	}
}

// TestLabCaching: datasets and profiles are built once per lab.
func TestLabCaching(t *testing.T) {
	l := tinyLab()
	a, err := l.HOT()
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.HOT()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("HOT rebuilt on second call")
	}
	pa, err := l.HOTProfile()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := l.HOTProfile()
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Error("HOT profile rebuilt on second call")
	}
}
