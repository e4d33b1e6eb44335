package core

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// wireCountingDialer counts every Write crossing toward a librarian — the
// ground truth for "a cache hit does zero librarian round trips": if nothing
// was written, nothing was asked.
type wireCountingDialer struct {
	inner  simnet.Dialer
	writes atomic.Int64
}

func (d *wireCountingDialer) Dial(name string) (net.Conn, error) {
	conn, err := d.inner.Dial(name)
	if err != nil {
		return nil, err
	}
	return &writeCountedConn{Conn: conn, writes: &d.writes}, nil
}

type writeCountedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// cacheFixture is the small-corpus fixture plus a cache-enabled pool over a
// write-counting dialer, with the fixture's MonoServer as the MS reference.
type cacheFixture struct {
	*fixture
	pool *Pool
	wire *wireCountingDialer
}

func newCacheFixture(t testing.TB, cfg Config) *cacheFixture {
	t.Helper()
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	wire := &wireCountingDialer{inner: f.dialer}
	if cfg.Analyzer == nil {
		cfg.Analyzer = testAnalyzer()
	}
	pool, err := NewPool(wire, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return &cacheFixture{fixture: f, pool: pool, wire: wire}
}

// sameResult compares two results answer-for-answer with exact score
// equality: a cache hit is a copy of the stored result, so unlike cross-path
// comparisons there is no float tolerance to grant.
func sameResult(got, want []Answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Key() != want[i].Key() || got[i].Score != want[i].Score ||
			got[i].Title != want[i].Title || got[i].Text != want[i].Text {
			return false
		}
	}
	return true
}

// TestCacheHitZeroRoundTrips pins the core contract: the second evaluation
// of a query is served from memory — identical answers, zero librarian
// writes, zero recorded calls — and agrees with the MS reference.
func TestCacheHitZeroRoundTrips(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal wallstreet"
	miss, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Trace.CacheHit {
		t.Fatal("first evaluation marked as a cache hit")
	}
	wireBefore := cf.wire.writes.Load()

	hit, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Trace.CacheHit {
		t.Fatal("repeat query was not served from the cache")
	}
	if got := cf.wire.writes.Load(); got != wireBefore {
		t.Fatalf("cache hit wrote %d messages to librarians, want 0", got-wireBefore)
	}
	if rt := hit.Trace.RoundTrips(0); rt != 0 || len(hit.Trace.Calls) != 0 {
		t.Fatalf("cache hit recorded %d round trips (%d calls), want 0", rt, len(hit.Trace.Calls))
	}
	if hit.Trace.BytesTransferred(0) != 0 {
		t.Fatal("cache hit recorded transferred bytes")
	}
	if !sameResult(hit.Answers, miss.Answers) {
		t.Fatalf("hit answers differ from the original:\n got %v\nwant %v", keysOf(hit.Answers), keysOf(miss.Answers))
	}
	// The cached CV ranking still matches MS — caching changes cost, never
	// content.
	ms, err := cf.mono.Query(query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRanking(hit.Answers, ms.Answers) {
		t.Fatal("cached CV ranking diverged from MS")
	}
	stats, ok := cf.pool.CacheStats()
	if !ok {
		t.Fatal("CacheStats reported no cache on a cache-enabled pool")
	}
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", stats)
	}
}

// TestCacheHitsAcrossModes repeats a query under each methodology: every
// mode caches independently and every hit reproduces its own miss exactly.
func TestCacheHitsAcrossModes(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	grouped, err := BuildGrouped(cf.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.pool.Federation().SetupCentralIndex(grouped); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal wallstreet"
	opts := Options{KPrime: 8}
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		miss, err := cf.pool.Query(mode, query, 10, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		hit, err := cf.pool.Query(mode, query, 10, opts)
		if err != nil {
			t.Fatalf("%v repeat: %v", mode, err)
		}
		if miss.Trace.CacheHit || !hit.Trace.CacheHit {
			t.Fatalf("%v: miss/hit flags wrong (%v, %v)", mode, miss.Trace.CacheHit, hit.Trace.CacheHit)
		}
		if hit.Trace.Mode != mode {
			t.Fatalf("%v: hit trace reports mode %v", mode, hit.Trace.Mode)
		}
		if !sameResult(hit.Answers, miss.Answers) {
			t.Fatalf("%v: hit differs from its miss", mode)
		}
	}
}

// TestCacheKeyNormalization: spellings that analyze to the same terms share
// one entry; the CI k' default and the CN merge default are resolved before
// keying, so implicit and explicit spellings of a default also share.
func TestCacheKeyNormalization(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := cf.pool.Query(ModeCV, "alpha federal", 10, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := cf.pool.Query(ModeCV, "  Alpha,   FEDERAL!  ", 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("re-spelled query missed: key must use analyzed terms, not raw text")
	}
	// CN: zero Merge means face value; the explicit spelling is the same key.
	if _, err := cf.pool.Query(ModeCN, "alpha federal", 10, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err = cf.pool.Query(ModeCN, "alpha federal", 10, Options{Merge: MergeFaceValue})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("explicit MergeFaceValue missed against the default spelling")
	}
	// Fault-tolerance knobs change cost, not content, so they share the key.
	res, err = cf.pool.Query(ModeCN, "alpha federal", 10, Options{Retries: 3, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("fault-tolerance options must not partition the cache")
	}
}

// TestCacheKeyDiscriminates: anything that changes the answer — k, mode, CN
// merge strategy — must miss rather than serve the wrong result.
func TestCacheKeyDiscriminates(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal wallstreet"
	if _, err := cf.pool.Query(ModeCV, query, 5, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("different k served the k=5 entry")
	}
	if len(res.Answers) <= 5 {
		t.Fatalf("k=10 answered %d documents", len(res.Answers))
	}
	res, err = cf.pool.Query(ModeCN, query, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("CN served the CV entry")
	}
	res, err = cf.pool.Query(ModeCN, query, 5, Options{Merge: MergeRoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("round-robin merge served the face-value entry")
	}
}

// TestCacheInvalidation: both invalidation paths — an explicit
// InvalidateCache (the librarian-update hook) and a setup re-run (federation
// epoch) — make the next lookup re-evaluate.
func TestCacheInvalidation(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal"
	warm := func() {
		t.Helper()
		if _, err := cf.pool.Query(ModeCV, query, 10, Options{}); err != nil {
			t.Fatal(err)
		}
		res, err := cf.pool.Query(ModeCV, query, 10, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Trace.CacheHit {
			t.Fatal("warm-up repeat was not a hit")
		}
	}
	warm()

	cf.pool.InvalidateCache()
	res, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("hit after InvalidateCache: stale answer served")
	}
	stats, _ := cf.pool.CacheStats()
	if stats.Invalidations == 0 {
		t.Fatal("invalidation not counted")
	}

	// A setup re-run bumps the federation epoch: same effect, no explicit
	// call.
	warm()
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	res, err = cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("hit across a vocabulary re-setup: stale answer served")
	}
}

// TestCacheInvalidateOnLibrarianUpdate wires the ingest path end to end: a
// pool registers InvalidateCache via Librarian.OnUpdate, and a publication
// stops the old answer cold — the repeat query re-evaluates and sees the
// grown collection.
func TestCacheInvalidateOnLibrarianUpdate(t *testing.T) {
	a := testAnalyzer()
	up, err := librarian.Build("UP", []store.Document{
		{ID: 0, Title: "d0", Text: "alpha alpha original"},
		{ID: 1, Title: "d1", Text: "federal original"},
	}, librarian.BuildOptions{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	dialer := mapDialer{
		"UP": func() (net.Conn, error) {
			client, server := simnet.Pipe(simnet.LinkConfig{})
			go func() {
				defer server.Close()
				_ = up.ServeConn(server)
			}()
			return client, nil
		},
	}
	pool, err := NewPool(dialer, []string{"UP"}, Config{Analyzer: a, Cache: &CacheConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	up.OnUpdate(pool.InvalidateCache)

	first, err := pool.Query(ModeCN, "alpha", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Answers) != 1 {
		t.Fatalf("pre-update answers = %d, want 1", len(first.Answers))
	}
	if res, err := pool.Query(ModeCN, "alpha", 5, Options{}); err != nil || !res.Trace.CacheHit {
		t.Fatalf("repeat before update: hit=%v err=%v", res != nil && res.Trace.CacheHit, err)
	}

	defer up.Close()
	if err := up.Ingest(context.Background(), []store.Document{{Title: "d2", Text: "alpha arrival"}}); err != nil {
		t.Fatal(err)
	}
	if err := up.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(ModeCN, "alpha", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("hit across a publication: the cached answer outlived its collection")
	}
	if len(res.Answers) != 2 {
		t.Fatalf("post-update answers = %d, want 2 from the grown collection", len(res.Answers))
	}
}

// TestCacheLRUEviction: with MaxEntries 2, a third distinct query evicts the
// least recently used entry.
func TestCacheLRUEviction(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{MaxEntries: 2}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	queries := []string{"alpha", "federal", "wallstreet"}
	for _, q := range queries {
		if _, err := cf.pool.Query(ModeCV, q, 5, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := cf.pool.CacheStats()
	if stats.Entries != 2 || stats.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", stats)
	}
	// "alpha" was the LRU victim; "federal" and "wallstreet" survive.
	res, err := cf.pool.Query(ModeCV, "alpha", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("evicted entry still served")
	}
	res, err = cf.pool.Query(ModeCV, "wallstreet", 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("recently used entry evicted out of LRU order")
	}
}

// TestCacheByteBound: a byte bound smaller than any single result caches
// nothing — queries still succeed, they just always re-evaluate.
func TestCacheByteBound(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{MaxBytes: 32}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := cf.pool.Query(ModeCV, "alpha federal", 10, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.CacheHit {
			t.Fatal("entry cached past the byte bound")
		}
	}
	stats, _ := cf.pool.CacheStats()
	if stats.Entries != 0 || stats.Bytes != 0 {
		t.Fatalf("stats = %+v, want an empty cache", stats)
	}
}

// TestCacheMutationIsolation is the aliasing regression test: callers that
// mutate a returned Result — answers, trace records, appends — must never
// corrupt what later callers receive.
func TestCacheMutationIsolation(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal wallstreet"
	first, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Answer, len(first.Answers))
	copy(want, first.Answers)

	// Vandalize the miss result the way real callers plausibly would:
	// re-score, re-label, append past the end, rewrite trace records.
	for i := range first.Answers {
		first.Answers[i].Score = -1
		first.Answers[i].Librarian = "MUTATED"
	}
	first.Answers = append(first.Answers, Answer{Librarian: "EXTRA"})
	for i := range first.Trace.Calls {
		first.Trace.Calls[i].Librarian = "MUTATED"
	}

	hit, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Trace.CacheHit {
		t.Fatal("expected a hit")
	}
	if !sameResult(hit.Answers, want) {
		t.Fatalf("mutating the miss result corrupted the cache:\n got %v\nwant %v", keysOf(hit.Answers), keysOf(want))
	}

	// Vandalize the hit too: the next hit must still be pristine.
	for i := range hit.Answers {
		hit.Answers[i].Score = -2
	}
	again, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Trace.CacheHit || !sameResult(again.Answers, want) {
		t.Fatal("mutating a hit corrupted the cache")
	}
}

// TestCacheSkipsDegradedResults: a partial answer is a cost-saving fallback,
// not the truth — it must never be frozen into the cache where it would
// outlive the failure that caused it.
func TestCacheSkipsDegradedResults(t *testing.T) {
	corpus, order := fourLibCorpus()
	a := testAnalyzer()
	libs := map[string]*librarian.Librarian{}
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs[name] = lib
	}
	goodDialer := librarian.NewInProcessDialer(
		[]*librarian.Librarian{libs["AP"], libs["FR"], libs["WSJ"]}, simnet.LinkConfig{})
	dialer := mapDialer{
		"AP":   func() (net.Conn, error) { return goodDialer.Dial("AP") },
		"FR":   func() (net.Conn, error) { return goodDialer.Dial("FR") },
		"WSJ":  func() (net.Conn, error) { return goodDialer.Dial("WSJ") },
		"ZIFF": deadAfterSetup(libs["ZIFF"], 1),
	}
	pool, err := NewPool(dialer, order, Config{Analyzer: a, Cache: &CacheConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pool.Close()
		goodDialer.Wait()
	}()
	res, err := pool.Query(ModeCN, "shared", 10, Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Degraded {
		t.Fatal("fixture did not produce a degraded result")
	}
	// The repeat must re-evaluate (and stay degraded here, since ZIFF is
	// still down) rather than serve the frozen partial answer as a hit.
	res, err = pool.Query(ModeCN, "shared", 10, Options{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("degraded result was cached")
	}
	stats, _ := pool.CacheStats()
	if stats.Entries != 0 {
		t.Fatalf("cache holds %d entries after degraded-only traffic", stats.Entries)
	}
}

// TestCacheStatsWithoutCache: the stats accessors answer ok=false rather
// than inventing zeros on a cache-less pool, and InvalidateCache is a no-op.
func TestCacheStatsWithoutCache(t *testing.T) {
	pf := newPoolFixture(t, 2)
	if _, ok := pf.pool.CacheStats(); ok {
		t.Fatal("CacheStats ok=true without a cache")
	}
	pf.pool.InvalidateCache() // must not panic
}

// unitCache builds a bare resultCache with private metrics, for regression
// tests on accounting paths that end-to-end traffic masks (a stale get on
// the query path is immediately followed by a put that refreshes gauges).
func unitCache(cfg CacheConfig) (*resultCache, *Metrics) {
	resolved, _ := resolveConfig([]string{"L"}, Config{Cache: &cfg})
	m := newMetrics(obs.NewRegistry())
	return newResultCache(*resolved.Cache, m), m
}

// fakeResult builds a small result for direct put/get exercises.
func fakeResult(n int) *Result {
	res := &Result{}
	for i := 0; i < n; i++ {
		res.Answers = append(res.Answers, Answer{
			Librarian: "A", LocalDoc: uint32(i), GlobalDoc: uint32(i), Score: float64(n - i),
		})
	}
	return res
}

// TestCacheGaugesTrackStaleRemoval is the regression test for the stale-get
// accounting bug: dropping an epoch-stale entry on lookup must move the
// entries/bytes gauges exactly like any other removal, so /metrics and
// CacheStats never disagree about what the cache holds.
func TestCacheGaugesTrackStaleRemoval(t *testing.T) {
	c, m := unitCache(CacheConfig{})
	keyA := cacheKey{mode: ModeCV, query: "alpha", k: 10}
	keyB := cacheKey{mode: ModeCV, query: "beta", k: 10}
	c.put(keyA, 1, fakeResult(3))
	c.put(keyB, 1, fakeResult(2))
	if got := m.cacheEntries.Value(); got != 2 {
		t.Fatalf("entries gauge after 2 puts = %d, want 2", got)
	}

	// Epoch churn: both entries are now stale; each lookup drops one.
	for _, key := range []cacheKey{keyA, keyB} {
		if _, ok := c.get(key, 2); ok {
			t.Fatalf("stale entry %v served as a hit", key)
		}
		stats := c.stats()
		if got := m.cacheEntries.Value(); got != int64(stats.Entries) {
			t.Fatalf("entries gauge = %d, stats = %d: stale removal missed the gauge", got, stats.Entries)
		}
		if got := m.cacheBytes.Value(); got != stats.Bytes {
			t.Fatalf("bytes gauge = %d, stats = %d: stale removal missed the gauge", got, stats.Bytes)
		}
	}
	if got := m.cacheEntries.Value(); got != 0 {
		t.Fatalf("entries gauge after full churn = %d, want 0", got)
	}
	if got := m.cacheBytes.Value(); got != 0 {
		t.Fatalf("bytes gauge after full churn = %d, want 0", got)
	}
}

// TestCacheInvalidationTaxonomy pins the counter semantics: Invalidations
// counts events (one per invalidate call, even on an empty cache), while
// entries dropped for staleness — lazily, on lookup — count as Evictions.
func TestCacheInvalidationTaxonomy(t *testing.T) {
	c, _ := unitCache(CacheConfig{})

	// An invalidation of an empty cache is still exactly one event.
	c.invalidate()
	if s := c.stats(); s.Invalidations != 1 || s.Evictions != 0 {
		t.Fatalf("empty-cache invalidate: invalidations=%d evictions=%d, want 1/0",
			s.Invalidations, s.Evictions)
	}

	// Three entries doomed by one more event: the event counter moves by
	// one, the three lazy removals land in Evictions.
	keys := []cacheKey{
		{mode: ModeCN, query: "a", k: 5},
		{mode: ModeCN, query: "b", k: 5},
		{mode: ModeCN, query: "c", k: 5},
	}
	for _, key := range keys {
		c.put(key, 7, fakeResult(1))
	}
	c.invalidate()
	for _, key := range keys {
		if _, ok := c.get(key, 8); ok {
			t.Fatalf("stale entry %v served as a hit", key)
		}
	}
	s := c.stats()
	if s.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2 (one per event, never per entry)", s.Invalidations)
	}
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3 (one per lazily dropped stale entry)", s.Evictions)
	}
	if s.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (a stale lookup is still a miss)", s.Misses)
	}
}

// TestQueryRejectsUnknownMerge is the end-to-end half of the unknown-merge
// fix: an out-of-range Options.Merge fails the query with the typed error in
// every mode — before any librarian work and before any cache write.
func TestQueryRejectsUnknownMerge(t *testing.T) {
	cf := newCacheFixture(t, Config{Cache: &CacheConfig{}})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	before := cf.wire.writes.Load()
	for _, mode := range []Mode{ModeCN, ModeCV} {
		_, err := cf.pool.Query(mode, "alpha", 5, Options{Merge: MergeStrategy(42)})
		if !errors.Is(err, ErrUnknownMergeStrategy) {
			t.Fatalf("%v query with Merge=42: err = %v, want ErrUnknownMergeStrategy", mode, err)
		}
	}
	if after := cf.wire.writes.Load(); after != before {
		t.Fatalf("rejected queries still wrote %d frames to librarians", after-before)
	}
	if stats, _ := cf.pool.CacheStats(); stats.Entries != 0 || stats.Misses != 0 {
		t.Fatalf("rejected queries touched the cache: %+v", stats)
	}
}
