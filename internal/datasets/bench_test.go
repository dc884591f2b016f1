package datasets

import (
	"fmt"
	"testing"
)

// BenchmarkSkitterBuild times whole Skitter builds: power-law draw,
// matching, and both exploration stages. Seeds cycle through 1–6, so
// one op is the mean over builds that stop their stages differently.
func BenchmarkSkitterBuild(b *testing.B) {
	for _, n := range []int{1000, 1500} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				if _, err := Skitter(SkitterConfig{N: n, Seed: int64(i%6 + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
