package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"teraphim/internal/obs"
	"teraphim/internal/search"
)

// The receptionist is the shared bottleneck of the "multiple users at
// capacity" regime: every query pays analyze/ship/wait/merge even when an
// identical query was answered moments ago. A result cache at the broker —
// the query-mediator placement of the federated digital-library literature —
// answers repeats without any librarian round trip, which is both the
// largest single-query saving available (the whole ship+wait+merge cost) and
// a fleet-wide reduction in librarian load.
//
// Correctness hinges on two properties:
//
//   - Staleness: a cached answer computed under one vocabulary / central
//     index / subcollection state must never be served after that state
//     changes. Every entry is stamped with an epoch — the sum of the
//     Federation's setup epoch (bumped by SetupVocabulary, SetupModels and
//     SetupCentralIndex) and the cache's own invalidation generation
//     (bumped by InvalidateCache, which callers wire to
//     Librarian.OnUpdate for serving-time collection swaps). A
//     stamp mismatch is a miss; one atomic increment invalidates the whole
//     cache in O(1).
//
//   - Aliasing: a cached Result is shared by every future hit, so neither
//     the caller that produced it nor the callers that receive it may reach
//     the cached backing arrays. Put and get both deep-copy (answers,
//     trace calls, trace failures).

// DefaultCacheEntries bounds the result cache when CacheConfig.MaxEntries
// is zero.
const DefaultCacheEntries = 1024

// DefaultCacheBytes bounds the result cache's approximate memory footprint
// when CacheConfig.MaxBytes is zero (64 MiB).
const DefaultCacheBytes = 64 << 20

// CacheConfig enables and sizes the receptionist result cache.
type CacheConfig struct {
	// MaxEntries bounds the number of cached results; the least recently
	// used entry is evicted first. Zero selects DefaultCacheEntries.
	MaxEntries int
	// MaxBytes bounds the cache's approximate memory footprint (answer
	// text, titles and trace records). Zero selects DefaultCacheBytes.
	MaxBytes int64
}

// CacheStats is a point-in-time snapshot of the result cache's counters,
// mirroring the teraphim_cache_* metric families.
type CacheStats struct {
	// Hits counts queries answered from the cache; Misses counts lookups
	// that fell through to the full pipeline (including lookups that found
	// only a stale entry).
	Hits   uint64
	Misses uint64
	// Evictions counts entries removed individually: LRU/byte-bound
	// evictions plus stale entries dropped lazily when a lookup finds their
	// epoch stamp out of date.
	Evictions uint64
	// Invalidations counts invalidation events — one per InvalidateCache
	// call — never per entry, so the counter moves the same whether the
	// cache held a thousand entries or none. Setup re-runs invalidate
	// through the federation epoch without an explicit event here; in both
	// cases the stale entries themselves surface in Evictions as lookups
	// lazily drop them.
	Invalidations uint64
	Entries       int
	Bytes         int64
}

// cacheKey identifies one cacheable query; resolve fills in all but the
// query text, which the pool normalizes through the federation's analyzer
// (the same pipeline every librarian applies), so "Alpha, Federal!" and
// "alpha federal" share an entry. KPrime, Fetch and TopR participate because
// they change the answer (candidate set, document text, and fan-out width
// respectively); the fault-tolerance knobs do not, because a successful
// non-degraded result is the same under any of them. Merge, KPrime and TopR
// are the *resolved* values (validated, defaulted, clamped), so option
// spellings that evaluate identically share an entry.
type cacheKey struct {
	mode   Mode
	query  string
	k      int
	merge  MergeStrategy
	kPrime int
	fetch  bool
	topR   int
	// eval participates even though every evaluator returns the same
	// ranking: the trace (librarian stats, postings decoded) differs, and a
	// caller who asked to exercise a pruning evaluator should not be served
	// an exact-evaluation trace from the cache, or vice versa.
	eval search.Evaluator
}

// cacheEntry is one stored result plus its LRU bookkeeping.
type cacheEntry struct {
	key   cacheKey
	res   *Result // privately owned deep copy; cloned again on every hit
	epoch uint64
	bytes int64
}

// resultCache is a concurrency-safe LRU of completed query results. A plain
// mutex suffices: a hit does O(k) copying anyway, and the critical section
// is a map lookup plus a list splice — microseconds against the
// milliseconds a librarian round trip costs.
type resultCache struct {
	maxEntries int
	maxBytes   int64

	// gen is the cache's own invalidation generation; the effective epoch of
	// an entry is fed.Epoch()+gen at the time it was stored.
	gen atomic.Uint64

	mu    sync.Mutex
	lru   *list.List // front = most recently used; values are *cacheEntry
	byKey map[cacheKey]*list.Element
	bytes int64

	hits          *obs.Counter
	misses        *obs.Counter
	evictions     *obs.Counter
	invalidations *obs.Counter
	entries       *obs.Gauge
	sizeBytes     *obs.Gauge
}

func newResultCache(cfg CacheConfig, m *Metrics) *resultCache {
	return &resultCache{
		maxEntries:    cfg.MaxEntries,
		maxBytes:      cfg.MaxBytes,
		lru:           list.New(),
		byKey:         make(map[cacheKey]*list.Element),
		hits:          m.cacheHits,
		misses:        m.cacheMisses,
		evictions:     m.cacheEvictions,
		invalidations: m.cacheInvalidations,
		entries:       m.cacheEntries,
		sizeBytes:     m.cacheBytes,
	}
}

// get returns a defensive copy of the entry for key at the given epoch. An
// entry stored under an older epoch is removed and counted as an eviction
// (the invalidations counter records invalidation *events*, not the entries
// they doom); the lookup itself is a miss either way.
func (c *resultCache) get(key cacheKey, epoch uint64) (*Result, bool) {
	c.mu.Lock()
	el, ok := c.byKey[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch {
		c.removeLocked(el)
		entries, bytes := c.lru.Len(), c.bytes
		c.mu.Unlock()
		c.evictions.Inc()
		c.misses.Inc()
		// The removal must reach the gauges too: /metrics and CacheStats
		// would otherwise keep reporting entries (and bytes) that no longer
		// exist until the next put happened to refresh them.
		c.entries.Set(int64(entries))
		c.sizeBytes.Set(bytes)
		return nil, false
	}
	c.lru.MoveToFront(el)
	res := e.res
	c.mu.Unlock()
	c.hits.Inc()

	out := cloneResult(res)
	// The hit's trace reflects what *this* query cost — nothing moved over
	// the wire — rather than replaying the original exchange record.
	out.Trace = Trace{Mode: res.Trace.Mode, CacheHit: true}
	return out, true
}

// put stores a defensive copy of res under key at the given epoch,
// evicting least-recently-used entries until both bounds hold. Results too
// large for the byte bound on their own are not cached.
func (c *resultCache) put(key cacheKey, epoch uint64, res *Result) {
	stored := cloneResult(res)
	size := approxResultBytes(key, stored)
	if size > c.maxBytes {
		return
	}
	e := &cacheEntry{key: key, res: stored, epoch: epoch, bytes: size}
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.removeLocked(el)
	}
	el := c.lru.PushFront(e)
	c.byKey[key] = el
	c.bytes += size
	var evicted uint64
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		oldest := c.lru.Back()
		if oldest == nil || oldest == el {
			break
		}
		c.removeLocked(oldest)
		evicted++
	}
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
	c.entries.Set(int64(entries))
	c.sizeBytes.Set(bytes)
}

// removeLocked unlinks one entry; callers hold c.mu.
func (c *resultCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.bytes
}

// invalidate drops every current entry in O(1) by bumping the cache
// generation: stamps no longer match, so each entry dies lazily on its next
// lookup (or by LRU eviction). This is the hook Librarian.OnUpdate drives —
// a publication at any librarian makes every cached answer suspect. The counter records the *event* (exactly once, even on an empty
// cache); the doomed entries show up in Evictions as lookups drop them.
func (c *resultCache) invalidate() {
	c.gen.Add(1)
	c.invalidations.Inc()
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Value(),
		Misses:        c.misses.Value(),
		Evictions:     c.evictions.Value(),
		Invalidations: c.invalidations.Value(),
		Entries:       entries,
		Bytes:         bytes,
	}
}

// cloneResult deep-copies a Result so the cache and its callers never share
// backing arrays: Answers, Trace.Calls and Trace.Failures are the slices a
// caller could plausibly mutate (fetch writes titles/text in place; eval
// harnesses re-sort answers).
func cloneResult(res *Result) *Result {
	out := &Result{Trace: res.Trace}
	if res.Answers != nil {
		out.Answers = make([]Answer, len(res.Answers))
		copy(out.Answers, res.Answers)
	}
	if res.Trace.Calls != nil {
		out.Trace.Calls = make([]Call, len(res.Trace.Calls))
		copy(out.Trace.Calls, res.Trace.Calls)
	}
	if res.Trace.Failures != nil {
		out.Trace.Failures = make([]Failure, len(res.Trace.Failures))
		copy(out.Trace.Failures, res.Trace.Failures)
	}
	return out
}

// approxResultBytes estimates an entry's resident size: string payloads
// dominate, the rest is accounted with flat per-record overheads.
func approxResultBytes(key cacheKey, res *Result) int64 {
	size := int64(len(key.query)) + 64
	for i := range res.Answers {
		a := &res.Answers[i]
		size += int64(len(a.Librarian)+len(a.Title)+len(a.Text)) + 48
	}
	size += int64(len(res.Trace.Calls)) * 96
	size += int64(len(res.Trace.Failures)) * 64
	return size
}
