package generate

import (
	"strings"
	"testing"

	"repro/internal/dk"
)

func TestGenerateAllSupportedCombos(t *testing.T) {
	rng := newRng(2)
	p, err := dk.Extract(powerLawGraph(t, rng, 150), 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d      int
		method Method
	}{
		{0, MethodStochastic},
		{1, MethodStochastic}, {1, MethodPseudograph}, {1, MethodMatching}, {1, MethodTargeting},
		{2, MethodStochastic}, {2, MethodPseudograph}, {2, MethodMatching}, {2, MethodTargeting},
		{3, MethodTargeting},
	}
	for _, tc := range cases {
		t.Run(tc.method.String()+"-"+string(rune('0'+tc.d)), func(t *testing.T) {
			g, err := FromProfile(p, tc.d, tc.method, rng)
			if err != nil {
				t.Fatalf("FromProfile(d=%d, %s): %v", tc.d, tc.method, err)
			}
			if g.N() == 0 || g.M() == 0 {
				t.Fatalf("FromProfile(d=%d, %s) returned empty graph", tc.d, tc.method)
			}
			// Average degree in the right ballpark for all methods.
			if g.AvgDegree() < 0.3*p.AvgDegree || g.AvgDegree() > 3*p.AvgDegree {
				t.Errorf("avg degree %v vs target %v", g.AvgDegree(), p.AvgDegree)
			}
		})
	}
}

func TestGenerateMatchingIsExact(t *testing.T) {
	rng := newRng(3)
	p, _ := dk.Extract(powerLawGraph(t, rng, 100), 2)
	g, err := FromProfile(p, 2, MethodMatching, rng)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := dk.Extract(g, 2)
	if d, _ := dk.Distance(p, q, 2); d != 0 {
		t.Errorf("matching 2K distance = %v, want 0", d)
	}
}

func TestGenerateUnsupported(t *testing.T) {
	rng := newRng(4)
	src := powerLawGraph(t, rng, 60)
	p, _ := dk.Extract(src, 3)
	if _, err := FromProfile(p, 3, MethodPseudograph, rng); err == nil {
		t.Error("3K pseudograph accepted")
	}
	shallow, _ := dk.Extract(src, 1)
	if _, err := FromProfile(shallow, 2, MethodMatching, rng); err == nil {
		t.Error("depth beyond profile accepted")
	}
	if _, err := FromProfile(p, 1, MethodMatching, nil); err == nil {
		t.Error("missing Rng accepted")
	}
}

func TestMethodString(t *testing.T) {
	for m, want := range map[Method]string{
		MethodStochastic:  "stochastic",
		MethodPseudograph: "pseudograph",
		MethodMatching:    "matching",
		MethodTargeting:   "targeting",
		Method(99):        "Method(99)",
		Method(-1):        "Method(-1)",
	} {
		if got := m.String(); !strings.Contains(got, want) {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

// TestParseMethod: at d ≤ 2, where every method exists, each
// construction method round-trips through its wire name and randomize is
// flagged. The d=3 rule and the error messages are checked across all
// entry points by pkg/dk's TestMethodRuleAgreement.
func TestParseMethod(t *testing.T) {
	for d := 0; d <= 2; d++ {
		for _, name := range []string{"", "randomize"} {
			if _, randomize, err := ParseMethod(name, d); err != nil || !randomize {
				t.Errorf("ParseMethod(%q, %d) = randomize %v, %v", name, d, randomize, err)
			}
		}
		for m := MethodStochastic; m <= MethodTargeting; m++ {
			if got, randomize, err := ParseMethod(m.String(), d); err != nil || randomize || got != m {
				t.Errorf("ParseMethod(%s, %d) = %v, %v, %v", m, d, got, randomize, err)
			}
		}
	}
}
