package generate_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datasets"
	"repro/internal/dk"
	"repro/internal/generate"
	"repro/internal/graph"
)

// replicaDigest pins a generated graph completely: its content hash (the
// edge set) plus a digest of the internal edge-list order, which is what
// later EdgeAt draws see and so part of the RNG-stream contract.
func replicaDigest(g *graph.CSR) string {
	h := sha256.New()
	var buf [8]byte
	for i := 0; i < g.M(); i++ {
		e := g.EdgeAt(i)
		binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
		h.Write(buf[:])
	}
	content := graph.ContentHash(g, nil)
	return fmt.Sprintf("n=%d m=%d content=%s order=%s", g.N(), g.M(), content[7:23], hex.EncodeToString(h.Sum(nil))[:16])
}

func goldenRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n got  %s\n want %s", name, got, want)
	}
}

// TestGenerationGolden pins, for fixed seeds, the exact output of every
// path that runs objective-driven rewiring: targeting through
// FromProfile at d=1, 2 and 3 (one input takes the 2K matching →
// pseudograph fallback), Explore for each metric, TargetRewire with
// Metropolis acceptance and annealing, and the Skitter and HOT dataset
// generators (Skitter runs Explore internally). Any change to an RNG
// stream, an acceptance decision or the edge-list order shows up here.
func TestGenerationGolden(t *testing.T) {
	src, err := datasets.Skitter(datasets.SkitterConfig{N: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "skitter", replicaDigest(src),
		"n=247 m=370 content=9b64af8565bdea80 order=7ac3cd5f58046532")
	hot, _, err := datasets.HOT(datasets.HOTConfig{Hosts: 200, AccessRouters: 20, Gateways: 12, CoreSize: 6, ExtraLinks: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "hot", replicaDigest(hot),
		"n=238 m=248 content=4375955f8c762262 order=047d9ee0473ef306")

	p, err := dk.Extract(src, 3)
	if err != nil {
		t.Fatal(err)
	}
	targeting := []struct {
		d    int
		want string
	}{
		{1, "n=247 m=357 content=bed7fbeed69f27cf order=65d928520b39d240"},
		{2, "n=247 m=370 content=82d33e440568b602 order=51d7584a1ebd5745"},
		{3, "n=247 m=370 content=043d13b6b3c4badf order=fcb6c029b53c1a53"},
	}
	for _, tc := range targeting {
		g, err := generate.FromProfile(p, tc.d, generate.MethodTargeting, goldenRng(int64(tc.d)))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("targeting d=%d", tc.d), replicaDigest(g), tc.want)
	}

	// An input whose 2K matching deadlocks, so 3K targeting starts from
	// the full pseudograph.
	fb, err := datasets.Skitter(datasets.SkitterConfig{N: 400, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	pfb, err := dk.Extract(fb, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generate.Matching2K(pfb.Joint, generate.Options{Rng: goldenRng(1)}); err == nil {
		t.Fatal("fallback input no longer makes 2K matching fail")
	}
	g, err := generate.FromProfile(pfb, 3, generate.MethodTargeting, goldenRng(1))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "targeting d=3 fallback", replicaDigest(g),
		"n=356 m=662 content=39e735ccb66d4861 order=ad1a3be9a7ae69e7")

	explore := []struct {
		metric   generate.ExploreMetric
		maximize bool
		want     string
	}{
		{generate.MetricLikelihood, false, "n=247 m=370 content=01c792a33aa95103 order=7af8e27369f89778 stats={Attempts:14800 Accepted:342 Reverted:13339 Rejected:{SelfLoop:697 DuplicateEdge:422 JDDMismatch:0 CensusChanged:0 Objective:13339 Disconnected:0}}"},
		{generate.MetricS2, true, "n=247 m=370 content=011f0b788438aa6a order=9e97b0e10f126d5b stats={Attempts:14800 Accepted:223 Reverted:1523 Rejected:{SelfLoop:719 DuplicateEdge:85 JDDMismatch:12250 CensusChanged:0 Objective:1523 Disconnected:0}}"},
		{generate.MetricClustering, true, "n=247 m=370 content=223b2e5fb8b92bb7 order=c77c969cd7aad5a6 stats={Attempts:14800 Accepted:12 Reverted:1741 Rejected:{SelfLoop:701 DuplicateEdge:74 JDDMismatch:12272 CensusChanged:0 Objective:1741 Disconnected:0}}"},
	}
	for _, tc := range explore {
		res, err := generate.Explore(src, tc.metric, generate.ExploreOptions{
			Rng: goldenRng(int64(10 + tc.metric)), Maximize: tc.maximize, MaxAttempts: 40 * src.M(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s stats=%+v", replicaDigest(res.FinalGraph), res.Stats)
		checkGolden(t, fmt.Sprintf("explore metric=%d", tc.metric), got, tc.want)
	}

	// Metropolis acceptance with annealing: worsening moves pass with an
	// RNG draw, so the acceptance stream itself is pinned.
	start, err := generate.Matching1K(p.Degrees, generate.Options{Rng: goldenRng(20)})
	if err != nil {
		t.Fatal(err)
	}
	metropolis := map[int]string{
		2: "n=247 m=370 content=53afc269d1bfd0d5 order=6365fe4667b9bfb7 D=2238→20 T=0.006189700196426911 stats={Attempts:11100 Accepted:2164 Reverted:7682 Rejected:{SelfLoop:535 DuplicateEdge:719 JDDMismatch:0 CensusChanged:0 Objective:7682 Disconnected:0}}",
		3: "n=247 m=370 content=8bf455e1fefdfdc0 order=59e95a82ce36c893 D=1094→532 T=0.006189700196426911 stats={Attempts:11100 Accepted:869 Reverted:460 Rejected:{SelfLoop:530 DuplicateEdge:44 JDDMismatch:9197 CensusChanged:0 Objective:460 Disconnected:0}}",
	}
	for _, d := range []int{2, 3} {
		from := start
		if d == 3 {
			if from, err = generate.Matching2K(p.Joint, generate.Options{Rng: goldenRng(21)}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := generate.TargetRewire(from, p, d, generate.TargetOptions{
			Rng: goldenRng(int64(30 + d)), Temperature: 4, Anneal: 0.8, MaxAttempts: 30 * from.M(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s D=%v→%v T=%v stats=%+v", replicaDigest(res.FinalGraph), res.InitialD, res.FinalD, res.TemperatureAt, res.Stats)
		checkGolden(t, fmt.Sprintf("metropolis d=%d", d), got, metropolis[d])
	}
}

// TestRandomizeGolden pins, for fixed seeds, the exact output of
// objective-free dK-randomizing rewiring at every depth on the Skitter
// N=300 input: the replica (content and edge-list order) and its
// RewireStats. Depth 2 must reach its full target of SwapFactor·M
// accepted swaps.
func TestRandomizeGolden(t *testing.T) {
	src, err := datasets.Skitter(datasets.SkitterConfig{N: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		0: "n=247 m=370 content=6cffa496b9d1240a order=65005af712de6252 stats={Attempts:3769 Accepted:3700 Reverted:0 Rejected:{SelfLoop:16 DuplicateEdge:53 JDDMismatch:0 CensusChanged:0 Objective:0 Disconnected:0}}",
		1: "n=247 m=370 content=ffb44093cf3b6864 order=ce5d29a1dedfb22e stats={Attempts:4631 Accepted:3700 Reverted:0 Rejected:{SelfLoop:247 DuplicateEdge:684 JDDMismatch:0 CensusChanged:0 Objective:0 Disconnected:0}}",
		2: "n=247 m=370 content=89c97adc3e50dc95 order=b0f9fd2822321ad1 stats={Attempts:6483 Accepted:3700 Reverted:0 Rejected:{SelfLoop:2543 DuplicateEdge:240 JDDMismatch:0 CensusChanged:0 Objective:0 Disconnected:0}}",
		3: "n=247 m=370 content=dac2294783adaead order=13dcec2aca055ac2 stats={Attempts:148000 Accepted:2956 Reverted:0 Rejected:{SelfLoop:7528 DuplicateEdge:693 JDDMismatch:130224 CensusChanged:6599 Objective:0 Disconnected:0}}",
	}
	for d, w := range want {
		g, st, err := generate.Randomize(src, d, generate.RandomizeOptions{Rng: goldenRng(int64(40 + d))})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s stats=%+v", replicaDigest(g), st)
		checkGolden(t, fmt.Sprintf("randomize d=%d", d), got, w)
		if d == 2 && st.Accepted != 10*src.M() {
			t.Errorf("randomize d=2 accepted %d swaps; want SwapFactor·M = %d", st.Accepted, 10*src.M())
		}
	}
}
