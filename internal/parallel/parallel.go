// Package parallel is the shared concurrency layer of the repository: a
// bounded worker pool plus deterministic seed-splitting. The paper's
// evaluation (Section 5) recomputes expensive whole-graph metrics —
// Brandes betweenness, distance distributions, spectral bounds — per
// topology and per averaging seed, and all of those loops are
// embarrassingly parallel across BFS sources and replicas, and the 3K
// census is parallel across center degree classes. This package lets
// internal/metrics, internal/experiments, internal/generate and
// internal/subgraphs fan that work out without each re-inventing
// goroutine plumbing.
//
// Determinism is the design constraint, not an afterthought. Two rules
// make every parallel computation in this repository bit-identical to its
// workers=1 run:
//
//  1. Randomness is derived per work item, never per goroutine: item i
//     seeds its own rand.Rand from SubSeed(base, i) (or an equivalent
//     index-keyed derivation), so results cannot depend on which worker
//     happened to run the item.
//
//  2. Results are written into index i of a pre-sized slice and reduced
//     in index order after the pool drains. Floating-point reductions are
//     therefore summed in a fixed order that does not depend on worker
//     count or scheduling.
//
// The pool itself makes no ordering promises: For and ForWorkers hand
// items to goroutines dynamically (an atomic cursor), which balances load
// but means bodies must not rely on the item→worker assignment for
// anything except scratch-buffer reuse.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers holds the process-wide default worker count; 0 means "use
// runtime.GOMAXPROCS(0)". It is set from the -workers flag of the cmd/
// tools and read by every parallel loop in the repository.
var workers atomic.Int32

// Workers returns the process-wide default worker count.
func Workers() int {
	if w := workers.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the process-wide default worker count. Values <= 0
// restore the default (runtime.GOMAXPROCS(0)). Concurrency-safe, but the
// intended use is one call at program start from a -workers flag.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int32(n))
}

// inFlight counts helper goroutines currently spawned by ForWorkers
// across the whole process. Parallel loops nest freely (an experiment
// fans out averaging seeds whose metric sweeps fan out BFS sources);
// without a global bound that would multiply into W^d goroutines d
// levels deep. Instead every pool call runs on the calling goroutine and
// spawns helpers only while the process-wide head-room lasts, so the
// total number of CPU-bound goroutines stays near Workers() no matter
// how deeply loops nest — inner loops simply degrade to inline execution
// once the fleet is saturated.
var inFlight atomic.Int32

// acquireHelper reserves one helper slot up to limit, without blocking
// (blocking would deadlock nested loops). Reports whether a slot was won.
func acquireHelper(limit int32) bool {
	for {
		cur := inFlight.Load()
		if cur >= limit {
			return false
		}
		if inFlight.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// For runs body(i) for every i in [0, n) on up to Workers() goroutines
// and returns when all calls have finished. With one worker (or n <= 1)
// it runs inline with no goroutines at all, so serial profiles stay
// clean.
func For(n int, body func(i int)) {
	ForWorkers(Workers(), n, func(_, i int) { body(i) })
}

// ForWorkers runs body(worker, i) for every i in [0, n) on up to w
// goroutines: the caller's own goroutine plus at most w-1 helpers,
// subject to the process-wide helper bound (see inFlight). The worker
// argument is a stable id in [0, min(w, n)): bodies may index per-worker
// scratch buffers with it, because a given worker id never runs two
// bodies concurrently. Item→worker assignment is dynamic and
// unspecified.
//
// A panic in any body is re-raised on the calling goroutine after the
// pool drains, matching the behavior of the equivalent serial loop
// closely enough for callers that recover.
func ForWorkers(w, n int, body func(worker, i int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	run := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(worker, i)
		}
	}
	// The helper budget honors both the explicit width and the global
	// default, so a direct ForWorkers(w, ...) call gets its w even when
	// the process default is lower.
	limit := int32(w - 1)
	if g := int32(Workers() - 1); g > limit {
		limit = g
	}
	for k := 1; k < w; k++ {
		if !acquireHelper(limit) {
			break
		}
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer inFlight.Add(-1)
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if !panicked {
						panicked, panicVal = true, r
					}
					panicMu.Unlock()
				}
			}()
			run(worker)
		}(k)
	}
	// The caller participates as worker 0; its panics drain the helpers
	// (deferred Wait) before propagating.
	defer func() {
		wg.Wait()
		if panicked {
			panic(panicVal)
		}
	}()
	run(0)
}

// ForErr runs body(i) for every i in [0, n) on up to Workers() goroutines
// and returns the error of the lowest failing index, or nil. After a
// failure at index f, items with index > f that have not started yet are
// skipped (cheap fail-fast); items below f always run, so the lowest
// failing index — and therefore the returned error — is deterministic
// regardless of worker count or scheduling.
func ForErr(n int, body func(i int) error) error {
	errs := make([]error, n)
	var minFail atomic.Int64
	minFail.Store(int64(n))
	For(n, func(i int) {
		if int64(i) > minFail.Load() {
			return
		}
		if err := body(i); err != nil {
			errs[i] = err
			for {
				cur := minFail.Load()
				if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// OrderedReduce is the chunk-ordered parallel reduction behind the
// deterministic metric sweeps: it partitions [0, nItems) into the fixed
// chunks of Chunks(nItems, maxChunks), computes one partial result per
// chunk on the pool (produce receives a stable worker id for scratch
// reuse plus the chunk's [lo, hi) range), and calls merge on every
// partial strictly in chunk order.
//
// Merging streams: a completed out-of-order partial is parked until its
// predecessors have merged, so at any moment only the out-of-order
// window — roughly the number of active workers, not the chunk count —
// is held live. merge calls are serialized (no locking needed inside),
// and because both the chunk split and the merge order are fixed, the
// reduction is bit-identical at any worker count.
func OrderedReduce[T any](nItems, maxChunks int, produce func(worker, lo, hi int) T, merge func(part T)) {
	bounds := Chunks(nItems, maxChunks)
	numChunks := len(bounds) - 1
	var (
		mu        sync.Mutex
		parked    = make(map[int]T)
		nextMerge int
	)
	ForWorkers(Workers(), numChunks, func(worker, c int) {
		part := produce(worker, bounds[c], bounds[c+1])
		mu.Lock()
		defer mu.Unlock()
		parked[c] = part
		for {
			p, ok := parked[nextMerge]
			if !ok {
				return
			}
			delete(parked, nextMerge)
			merge(p)
			nextMerge++
		}
	})
}

// SubSeed derives the i-th child seed of base with a SplitMix64 mixing
// step. Child seeds are decorrelated from the base and from each other,
// so per-replica rand.Rand streams built as
//
//	rand.New(rand.NewSource(parallel.SubSeed(seed, i)))
//
// are statistically independent while remaining a pure function of
// (seed, i) — the property the determinism guarantee rests on. Never
// share one *rand.Rand across goroutines.
func SubSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9E3779B97F4A7C15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Chunks splits n items into at most maxChunks contiguous ranges of
// near-equal size and returns the range bounds: chunk c covers
// [bounds[c], bounds[c+1]). The split depends only on n and maxChunks —
// never on the worker count — so per-chunk partial results can be reduced
// in chunk order to give bit-identical output at any parallelism level.
func Chunks(n, maxChunks int) []int {
	if n < 0 {
		n = 0
	}
	c := maxChunks
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	if c == 0 {
		return []int{0}
	}
	bounds := make([]int, c+1)
	for i := 0; i <= c; i++ {
		bounds[i] = i * n / c
	}
	return bounds
}
