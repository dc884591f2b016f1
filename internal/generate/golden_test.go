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
// FromProfile at d=1, 2 and 3 (plus one input the earlier 2K matching
// failed on), Explore for each metric, TargetRewire with
// fixed-temperature Metropolis acceptance, and the Skitter and HOT dataset
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
		{3, "n=247 m=370 content=7ece088be5df2b7f order=1d1da8dd396700cc"},
	}
	for _, tc := range targeting {
		g, err := generate.FromProfile(p, tc.d, generate.MethodTargeting, goldenRng(int64(tc.d)))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("targeting d=%d", tc.d), replicaDigest(g), tc.want)
	}

	// An input on which the earlier repair-and-restart 2K matching
	// deadlocked, so 3K targeting silently started from the simplified
	// pseudograph with 662 of the target's 692 edges. Now it keeps them,
	// and the JDD with them.
	fb, err := datasets.Skitter(datasets.SkitterConfig{N: 400, Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	pfb, err := dk.Extract(fb, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generate.FromProfile(pfb, 3, generate.MethodTargeting, goldenRng(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := dk.Extract(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 692 || dk.D2(pfb.Joint, q.Joint) != 0 {
		t.Errorf("targeting d=3 from the Skitter N=400 seed 26 profile: m=%d D2=%v; want m=692 D2=0", g.M(), dk.D2(pfb.Joint, q.Joint))
	}
	checkGolden(t, "targeting d=3 no fallback", replicaDigest(g),
		"n=356 m=692 content=ce39ddc9c5ab075a order=5eeb022d6701176b")

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

	// Metropolis acceptance at a fixed temperature: worsening moves pass
	// with an RNG draw, so the acceptance stream itself is pinned.
	start, err := generate.Matching1K(p.Degrees, generate.Options{Rng: goldenRng(20)})
	if err != nil {
		t.Fatal(err)
	}
	metropolis := map[int]string{
		2: "n=247 m=370 content=301158522327f5ed order=87bf343897586529 D=2238→294 stats={Attempts:11100 Accepted:4477 Reverted:5030 Rejected:{SelfLoop:545 DuplicateEdge:1048 JDDMismatch:0 CensusChanged:0 Objective:5030 Disconnected:0}} stop=max_attempts",
		3: "n=247 m=370 content=4aa85f66fcbec278 order=f2d0542f3b8502a5 D=1060→624 stats={Attempts:11100 Accepted:1019 Reverted:295 Rejected:{SelfLoop:520 DuplicateEdge:46 JDDMismatch:9220 CensusChanged:0 Objective:295 Disconnected:0}} stop=max_attempts",
	}
	for _, d := range []int{2, 3} {
		from := start
		if d == 3 {
			if from, err = generate.Matching2K(p.Joint, generate.Options{Rng: goldenRng(21)}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := generate.TargetRewire(from, p, d, generate.TargetOptions{
			Rng: goldenRng(int64(30 + d)), Temperature: 4, MaxAttempts: 30 * from.M(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s D=%v→%v stats=%+v stop=%v", replicaDigest(res.FinalGraph), res.InitialD, res.FinalD, res.Stats, res.Stop)
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
		3: "n=247 m=370 content=e91ef67ca214781a order=6bf60e6f97035fa0 stats={Attempts:9933 Accepted:3700 Reverted:0 Rejected:{SelfLoop:2162 DuplicateEdge:270 JDDMismatch:0 CensusChanged:3801 Objective:0 Disconnected:0}}",
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
