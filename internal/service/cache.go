package service

import (
	"container/list"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/dk"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/pkg/dkapi"
)

// Hash is a content address of a graph: "sha256:" plus the hex digest of
// its canonical edge list (see CanonicalHash). Two uploads with the same
// edge set — regardless of line order, comments, whitespace, or the order
// node labels first appear — map to the same Hash.
type Hash string

// CanonicalHash computes the content address of a parsed graph. The
// canonical form is defined by graph.ContentHash; it is also the key of
// the persistent artifact store, so the memory and disk tiers of the
// cache address the same topology identically. labels maps the graph's
// dense node ids back to the labels of the original input; pass nil to
// use the dense ids themselves.
func CanonicalHash(g *graph.CSR, labels []int) Hash {
	return Hash(graph.ContentHash(g, labels))
}

// summaryKey identifies one metric-summary configuration of a cached
// graph, so summaries with different options coexist in the same entry.
type summaryKey struct {
	spectral bool
	sources  int
	seed     int64
}

// Entry is one cached graph with its lazily computed derivatives. All
// methods are safe for concurrent use; expensive computations run under a
// per-entry lock so concurrent requests for the same topology do not
// duplicate work (single-flight per entry).
type Entry struct {
	hash  Hash
	cache *Cache // owning cache; carries the optional disk tier

	mu        sync.Mutex
	g         *graph.CSR
	gcc       *graph.CSR
	profile   *dk.Profile // deepest extraction so far
	summaries map[summaryKey]metrics.Summary
}

// Hash returns the entry's content address.
func (e *Entry) Hash() Hash { return e.hash }

// Graph returns the parsed graph. Callers must treat it as read-only:
// every rewiring entry point in internal/generate works on a copy, so
// passing it straight to Randomize or TargetRewire is safe.
func (e *Entry) Graph() *graph.CSR { return e.g }

// Size returns the graph's node and edge counts.
func (e *Entry) Size() (n, m int) { return e.g.N(), e.g.M() }

// Profile returns the dK-profile of the graph at depth d, extracting it
// on first use. Deeper extractions subsume shallower ones via the
// inclusion property, so the entry stores only the deepest profile seen
// and answers shallower requests with Restrict. With a disk tier
// configured, a memory miss probes the store before recomputing, and a
// fresh extraction is written through — so a profile computed before a
// restart is fetched, not recomputed, after it. The second result reports
// whether the profile was served without an extraction run (from either
// tier).
func (e *Entry) Profile(d int) (*dk.Profile, bool, error) {
	return e.ProfileSpan(d, nil)
}

// ProfileSpan is Profile with disk-tier operations recorded as child
// spans of sp (see store.Ops) — a nil span is the plain untraced path.
// Memory hits record nothing: only actual store traffic appears in a
// trace.
func (e *Entry) ProfileSpan(d int, sp *trace.Span) (*dk.Profile, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.profile != nil && e.profile.D >= d {
		if e.profile.D == d {
			return e.profile, true, nil
		}
		p, err := e.profile.Restrict(d)
		return p, true, err
	}
	if disk := e.cache.diskTier(); disk != nil {
		ops := store.Ops{S: disk, Span: sp}
		if p, err := ops.GetProfile(string(e.hash), d); err == nil {
			e.cache.diskHits.Add(1)
			e.profile = p
			if p.D == d {
				return p, true, nil
			}
			q, err := p.Restrict(d)
			return q, true, err
		}
		e.cache.diskMisses.Add(1)
	}
	p, err := dk.Extract(e.g, d)
	if err != nil {
		return nil, false, err
	}
	e.profile = p
	if disk := e.cache.diskTier(); disk != nil {
		if (store.Ops{S: disk, Span: sp}).PutProfile(string(e.hash), p) == nil {
			e.cache.diskProfileWrites.Add(1)
		}
	}
	return p, false, nil
}

// Summary returns the scalar metric suite of the graph's giant connected
// component (the paper's convention), computing and caching it per
// (spectral, sources, seed) configuration. The second result reports
// whether the summary was served from cache.
func (e *Entry) Summary(spectral bool, sources int, seed int64) (metrics.Summary, bool, error) {
	key := summaryKey{spectral, sources, seed}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.summaries[key]; ok {
		return s, true, nil
	}
	if e.gcc == nil {
		e.gcc, _ = graph.GiantComponent(e.g)
	}
	s, err := metrics.Summarize(e.gcc, metrics.SummaryOptions{
		Spectral:        spectral,
		DistanceSources: sources,
		Rng:             rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return metrics.Summary{}, false, err
	}
	if e.summaries == nil {
		e.summaries = make(map[summaryKey]metrics.Summary)
	}
	e.summaries[key] = s
	return s, false, nil
}

// CacheStats counts cache traffic. Hits and Misses count Intern calls
// that found (respectively created) an entry; Extractions counts actual
// dk.Extract runs, which a repeated request for an already-profiled
// topology must not increase. The Disk* counters instrument the
// persistent tier: DiskHits counts artifacts (graphs or profiles) served
// from disk instead of being reparsed or recomputed, DiskMisses counts
// disk probes that found nothing, and the write counters count
// write-through traffic. The type itself is wire vocabulary (pkg/dkapi).
type CacheStats = dkapi.CacheStats

// Cache is the content-addressed graph/profile cache behind the service:
// an LRU-bounded map from CanonicalHash to Entry, optionally backed by a
// persistent disk tier (internal/store). Interning the same topology
// twice returns the same Entry, so its extracted profiles and computed
// metric summaries are shared across requests and the Brandes/census
// recomputation is skipped. With a disk tier, interned graphs and
// extracted profiles are written through, LRU eviction only sheds the
// memory copy, and both Get and Profile fall back to disk — the cache
// survives restarts.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used; values are *Entry
	byHash  map[Hash]*list.Element
	stats   CacheStats
	extract int64 // lifetime dk.Extract count (instrumentation)

	disk              *store.Store // nil = memory-only
	diskHits          atomic.Int64
	diskMisses        atomic.Int64
	diskGraphWrites   atomic.Int64
	diskProfileWrites atomic.Int64
}

// NewCache returns a memory-only cache bounded to max entries (minimum 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, ll: list.New(), byHash: make(map[Hash]*list.Element)}
}

// detachedCache backs standalone entries: memoization without LRU
// registration or disk write-through.
var detachedCache = NewCache(1)

// NewDetachedEntry wraps a graph in a standalone cache entry: its
// profile and summaries memoize on the entry itself, but nothing is
// registered in any LRU or written to disk. This is how generated
// replicas are handled on every execution path — registering an
// ensemble would evict the topologies a pipeline's later steps still
// reference by hash. The graph is canonicalized first, like every
// cached graph, so a later dK-randomization of a replica is a pure
// function of (edge set, seed) and streamed edge lists are identical
// across local and remote execution.
func NewDetachedEntry(g *graph.CSR) *Entry {
	if !g.EdgesCanonicallyOrdered() {
		g = g.CanonicalClone()
	}
	return &Entry{hash: CanonicalHash(g, nil), cache: detachedCache, g: g}
}

// NewTieredCache returns a cache of max memory entries backed by the
// given persistent store.
func NewTieredCache(max int, disk *store.Store) *Cache {
	c := NewCache(max)
	c.disk = disk
	return c
}

// diskTier returns the persistent tier, or nil for a memory-only cache.
// The field is immutable after construction, so no lock is needed.
func (c *Cache) diskTier() *store.Store { return c.disk }

// Intern returns the cache entry for g, creating it if the topology has
// not been seen (or was evicted from memory). The boolean reports whether
// the entry already existed. labels is the dense-id→label mapping from
// parsing; nil means dense ids are the labels. New graphs are written
// through to the disk tier outside the cache lock.
//
// Cached graphs are always in canonical edge order: index-addressed
// edge draws (the randomize rewiring loop) must be a pure function of
// (edge set, seed), not of whether the graph arrived via text parse,
// binary decode, or dataset synthesis — otherwise the same generate
// request would yield different replicas before and after a restart.
// Parsed and binary-decoded graphs are already canonical; others
// (dataset synthesis) are normalized through a clone, which also keeps
// shared dataset-memo graphs untouched.
func (c *Cache) Intern(g *graph.CSR, labels []int) (*Entry, bool) {
	return c.InternHashed(g, labels, CanonicalHash(g, labels))
}

// InternHashed is Intern for a graph whose content address h the caller
// already holds, computed by CanonicalHash from the same g and labels:
// it skips re-hashing the edge list. An h that does not match would file
// the topology under a wrong address, so inputs from outside the process
// go through Intern.
func (c *Cache) InternHashed(g *graph.CSR, labels []int, h Hash) (*Entry, bool) {
	if !g.EdgesCanonicallyOrdered() {
		g = g.CanonicalClone()
	}
	e, existed := c.intern(h, g, true)
	if !existed && c.disk != nil {
		// Write-through is idempotent: the artifact is content-addressed,
		// so re-interning after a memory eviction finds it already on
		// disk and PutGraph skips the write.
		if !c.disk.HasGraph(string(h)) && c.disk.PutGraph(string(h), g, labels) == nil {
			c.diskGraphWrites.Add(1)
		}
	}
	return e, existed
}

// intern is the memory-tier insert. count selects whether the hit/miss
// counters move (Intern counts; disk promotions do not double-count).
// The dense-id→label table is not retained: the hash already encodes it,
// and the disk artifact is the durable copy.
func (c *Cache) intern(h Hash, g *graph.CSR, count bool) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byHash[h]; ok {
		c.ll.MoveToFront(el)
		if count {
			c.stats.Hits++
		}
		return el.Value.(*Entry), true
	}
	if count {
		c.stats.Misses++
	}
	e := &Entry{hash: h, cache: c, g: g}
	c.byHash[h] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byHash, oldest.Value.(*Entry).hash)
		c.stats.Evictions++
	}
	return e, false
}

// Get returns the entry for a previously interned hash. On a memory miss
// it falls back to the disk tier, promoting a stored graph back into the
// LRU — so references by hash keep resolving across restarts and
// evictions. Returns nil if the hash is unknown to both tiers.
func (c *Cache) Get(h Hash) *Entry {
	c.mu.Lock()
	if el, ok := c.byHash[h]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*Entry)
	}
	c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	g, _, err := c.disk.GetGraph(string(h), graph.ReadLimits{})
	if err != nil {
		c.diskMisses.Add(1)
		return nil
	}
	c.diskHits.Add(1)
	e, _ := c.intern(h, g, false)
	return e
}

// noteExtraction records one dk.Extract run for Stats.
func (c *Cache) noteExtraction() {
	c.mu.Lock()
	c.extract++
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.MaxEntries = c.max
	s.Extractions = c.extract
	c.mu.Unlock()
	s.DiskTier = c.disk != nil
	s.DiskHits = c.diskHits.Load()
	s.DiskMisses = c.diskMisses.Load()
	s.DiskGraphWrites = c.diskGraphWrites.Load()
	s.DiskProfileWrites = c.diskProfileWrites.Load()
	return s
}
