package dk

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// Graphical reports whether the degree sequence can be realized by a
// simple undirected graph, by the Erdős–Gallai theorem: with degrees
// sorted descending d1 >= ... >= dn, the sequence is graphical iff the sum
// is even and for every k
//
//	Σ_{i<=k} d_i  <=  k(k−1) + Σ_{i>k} min(d_i, k).
//
// The suffix sums are evaluated in O(n log n) total using a pointer sweep.
func Graphical(seq []int) bool {
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
	// suffix[i] = Σ_{j >= i} d_j
	suffix := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + d[i]
	}
	left := 0
	for k := 1; k <= n; k++ {
		left += d[k-1]
		// Σ_{i>k} min(d_i, k): entries d_i > k contribute k each; the rest
		// contribute themselves. Since d is sorted descending, find the
		// first index >= k (0-based) where d_i <= k.
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

// GraphicalDist reports whether the degree distribution is graphical.
func GraphicalDist(dd *DegreeDist) bool {
	return Graphical(dd.Sequence())
}

// GraphicalJDD reports whether some simple graph realizes the joint
// degree distribution, by the exact conditions of Stanton and Pinar
// (also Bassler et al.): with n_k the node count of degree class k,
//
//   - each class's endpoint total Σ_k′ m(k,k′)·µ(k,k′) equals k·n_k, that
//     is, it is divisible by k (µ is 2 on the diagonal, 1 off it);
//   - m(k,k′) ≤ n_k·n_k′ for k ≠ k′;
//   - m(k,k) ≤ n_k(n_k−1)/2.
//
// It returns nil when they hold, else an error naming the first degree
// class (ascending) or class pair (in Pairs order) that breaks one.
func GraphicalJDD(j *JDD) error {
	ends := make(map[int]int)
	pairs := j.Pairs()
	for _, p := range pairs {
		m := j.Count[p]
		if m < 0 {
			return fmt.Errorf("dk: JDD class pair (%d,%d) has negative count %d", p.K1, p.K2, m)
		}
		if p.K1 <= 0 {
			return fmt.Errorf("dk: JDD class pair (%d,%d) has degree %d", p.K1, p.K2, p.K1)
		}
		ends[p.K1] += m
		ends[p.K2] += m
	}
	nodes := make(map[int]int, len(ends))
	for _, k := range slices.Sorted(maps.Keys(ends)) {
		if ends[k]%k != 0 {
			return fmt.Errorf("dk: JDD degree class %d has %d endpoints, not a multiple of %d", k, ends[k], k)
		}
		nodes[k] = ends[k] / k
	}
	for _, p := range pairs {
		m, n1, n2 := j.Count[p], nodes[p.K1], nodes[p.K2]
		if p.K1 != p.K2 && m > n1*n2 {
			return fmt.Errorf("dk: JDD class pair (%d,%d) has %d edges, more than n_%d·n_%d = %d", p.K1, p.K2, m, p.K1, p.K2, n1*n2)
		}
		if p.K1 == p.K2 && m > n1*(n1-1)/2 {
			return fmt.Errorf("dk: JDD class pair (%d,%d) has %d edges, more than n_%d(n_%d−1)/2 = %d", p.K1, p.K2, m, p.K1, p.K1, n1*(n1-1)/2)
		}
	}
	return nil
}
