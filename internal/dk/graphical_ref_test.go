package dk

import (
	"math/rand"
	"sort"
	"testing"
)

// graphicalSorted is the Erdős–Gallai test as it was before Graphical
// counting-sorted the degrees: a comparison sort and one binary search
// per k. It is the reference Graphical is held to.
func graphicalSorted(seq []int) bool {
	n := len(seq)
	if n == 0 {
		return true
	}
	d := make([]int, n)
	copy(d, seq)
	sort.Sort(sort.Reverse(sort.IntSlice(d)))
	if d[n-1] < 0 || d[0] >= n {
		return false
	}
	total := 0
	for _, x := range d {
		total += x
	}
	if total%2 != 0 {
		return false
	}
	suffix := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + d[i]
	}
	left := 0
	for k := 1; k <= n; k++ {
		left += d[k-1]
		lo, hi := k, n
		for lo < hi {
			mid := (lo + hi) / 2
			if d[mid] > k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		right := k*(k-1) + (lo-k)*k + suffix[lo]
		if left > right {
			return false
		}
	}
	return true
}

// randomSequence draws a degree sequence of length 1–40 that lands on
// both sides of the Erdős–Gallai boundary: degrees mostly in [0, n−1],
// with an occasional out-of-range entry and a parity fix-up half the
// time.
func randomSequence(rng *rand.Rand) []int {
	n := 1 + rng.Intn(40)
	hi := 1 + rng.Intn(n)
	seq := make([]int, n)
	sum := 0
	for i := range seq {
		seq[i] = rng.Intn(hi)
		if rng.Intn(50) == 0 {
			seq[i] = rng.Intn(2*n+2) - 1
		}
		sum += seq[i]
	}
	if sum%2 != 0 && rng.Intn(2) == 0 {
		seq[rng.Intn(n)] ^= 1
	}
	return seq
}

// TestGraphicalMatchesSorted holds the counting-sort Graphical to the
// sort-based reference on random sequences, and checks the sweep is not
// vacuous: both verdicts occur, including non-graphical sequences with
// an even sum in range, which only the Erdős–Gallai inequalities reject.
func TestGraphicalMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphical, inequality := 0, 0
	for i := 0; i < 100000; i++ {
		seq := randomSequence(rng)
		want := graphicalSorted(seq)
		if got := Graphical(seq); got != want {
			t.Fatalf("Graphical(%v) = %v, sorted reference %v", seq, got, want)
		}
		if want {
			graphical++
			continue
		}
		sum, inRange := 0, true
		for _, x := range seq {
			sum += x
			inRange = inRange && x >= 0 && x < len(seq)
		}
		if inRange && sum%2 == 0 {
			inequality++
		}
	}
	if graphical < 1000 || inequality < 1000 {
		t.Fatalf("vacuous sweep: %d graphical, %d rejected by an inequality", graphical, inequality)
	}
}

// FuzzGraphical holds Graphical to the sort-based reference on arbitrary
// sequences: each input byte is one degree, offset so that −1 and n
// occur.
func FuzzGraphical(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 3})
	f.Add([]byte{4, 4, 4, 1, 1})
	f.Add([]byte{0, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		seq := make([]int, len(data))
		for i, b := range data {
			seq[i] = int(b)%(len(data)+2) - 1
		}
		if got, want := Graphical(seq), graphicalSorted(seq); got != want {
			t.Fatalf("Graphical(%v) = %v, sorted reference %v", seq, got, want)
		}
	})
}
