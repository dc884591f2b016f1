package generate

import (
	"slices"
	"testing"

	"repro/internal/dk"
)

// The insertion sorts that construction used before it moved to the
// standard library, kept as the reference the library order must match:
// 2K construction's node ids, and so every RNG stream after it, depend on
// the class order.

func refSortPairs(ps []dk.DegPair) {
	for i := 1; i < len(ps); i++ {
		x := ps[i]
		j := i - 1
		for j >= 0 && (ps[j].K1 > x.K1 || (ps[j].K1 == x.K1 && ps[j].K2 > x.K2)) {
			ps[j+1] = ps[j]
			j--
		}
		ps[j+1] = x
	}
}

func refSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j] > x {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

func TestSortOrderMatchesInsertionSort(t *testing.T) {
	rng := newRng(17)
	for trial := 0; trial < 5; trial++ {
		p, err := dk.Extract(powerLawGraph(t, rng, 400), 2)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]dk.DegPair, 0, len(p.Joint.Count))
		for pair := range p.Joint.Count {
			want = append(want, pair)
		}
		refSortPairs(want)
		if got := p.Joint.Pairs(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: JDD pair order differs from the insertion sort", trial)
		}

		ints := make([]int, 300)
		for i := range ints {
			ints[i] = rng.Intn(50)
		}
		want2 := slices.Clone(ints)
		refSortInts(want2)
		slices.Sort(ints)
		if !slices.Equal(ints, want2) {
			t.Fatalf("trial %d: int order differs from the insertion sort", trial)
		}
	}
}
