package dk

import (
	"fmt"

	"repro/internal/subgraphs"
)

// The D_d distance metrics of Section 4.1.4: sums of squared differences
// between current and target subgraph counts of each class. Each D_d is
// non-negative and zero exactly when the two dK-distributions coincide.

// D0 is the squared difference of average degrees.
func D0(a, b *Profile) float64 {
	d := a.AvgDegree - b.AvgDegree
	return d * d
}

// D1 is the squared distance between degree distributions (count form).
func D1(a, b *DegreeDist) float64 {
	var sum float64
	for k, na := range a.Count {
		d := float64(na - b.Count[k])
		sum += d * d
	}
	for k, nb := range b.Count {
		if _, seen := a.Count[k]; !seen {
			sum += float64(nb) * float64(nb)
		}
	}
	return sum
}

// D2 is the paper's JDD distance Σ [m_cur(k1,k2) − m_tgt(k1,k2)]².
func D2(a, b *JDD) float64 {
	var sum float64
	for p, ma := range a.Count {
		d := float64(ma - b.Count[p])
		sum += d * d
	}
	for p, mb := range b.Count {
		if _, seen := a.Count[p]; !seen {
			sum += float64(mb) * float64(mb)
		}
	}
	return sum
}

// D3 is the paper's 3K distance: the sum of squared differences between
// current and target wedge counts plus the same for triangle counts, in
// one merge walk over each pair of canonical class arrays.
func D3(a, b *subgraphs.Census) float64 {
	var sum float64
	sq := func(x, y int64) {
		d := float64(x - y)
		sum += d * d
	}
	subgraphs.Join(a.Wedges, b.Wedges, func(_ subgraphs.WedgeKey, x, y int64) { sq(x, y) })
	subgraphs.Join(a.Triangles, b.Triangles, func(_ subgraphs.TriangleKey, x, y int64) { sq(x, y) })
	return sum
}

// Distance returns D_d between two profiles, both of which must have been
// extracted to depth >= d.
func Distance(a, b *Profile, d int) (float64, error) {
	if a.D < d || b.D < d {
		return 0, fmt.Errorf("dk: profiles extracted to depths %d,%d; need >= %d", a.D, b.D, d)
	}
	switch d {
	case 0:
		return D0(a, b), nil
	case 1:
		return D1(a.Degrees, b.Degrees), nil
	case 2:
		return D2(a.Joint, b.Joint), nil
	case 3:
		return D3(a.Census, b.Census), nil
	default:
		return 0, fmt.Errorf("dk: unsupported distance depth %d", d)
	}
}
