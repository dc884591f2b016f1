package subgraphs

// WithParallelPairs runs fn with Count's parallel cutoff at p neighbor
// pairs instead of parallelPairs, so small graphs take the
// class-parallel path.
func WithParallelPairs(p int64, fn func()) {
	defer func(old int64) { minParallelPairs = old }(minParallelPairs)
	minParallelPairs = p
	fn()
}
