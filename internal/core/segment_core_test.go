package core

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"

	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// newSegmentedDialer serves the same corpus as newFixture, but every
// subcollection is a Librarian built from its first n-th and fed the rest
// through the streaming Ingest API, one chunk per Flush (background merging
// off, so each ends up with n live segments).
func newSegmentedDialer(t testing.TB, corpus map[string][]store.Document, order []string, n int) (*librarian.InProcessDialer, map[string]*librarian.Librarian) {
	t.Helper()
	a := testAnalyzer()
	ctx := context.Background()
	dialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	ups := make(map[string]*librarian.Librarian, len(order))
	for _, name := range order {
		docs := corpus[name]
		up, err := librarian.Build(name, docs[:len(docs)/n], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { up.Close() })
		if err := up.ConfigureIngest(librarian.IngestConfig{MergeFanIn: -1}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			if err := up.Ingest(ctx, docs[i*len(docs)/n:(i+1)*len(docs)/n]); err != nil {
				t.Fatal(err)
			}
			if err := up.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(up.SegmentStats().Segments); got != n {
			t.Fatalf("%s: %d segments, want %d", name, got, n)
		}
		ups[name] = up
		dialer.AddEndpoint(name, up, simnet.LinkConfig{})
	}
	return dialer, ups
}

// newSegmentedFleet connects a default receptionist to a newSegmentedDialer
// fleet, returning the librarians for the concurrency tests to poke.
func newSegmentedFleet(t testing.TB, corpus map[string][]store.Document, order []string) (*Pool, map[string]*librarian.Librarian) {
	t.Helper()
	dialer, ups := newSegmentedDialer(t, corpus, order, 3)
	recep, err := NewPool(dialer, order, Config{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		recep.Close()
		dialer.Wait()
	})
	return recep, ups
}

func assertSameAnswers(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s rank %d: %s vs %s", label, i, got[i].Key(), want[i].Key())
		}
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s rank %d: score %g vs %g", label, i, got[i].Score, want[i].Score)
		}
	}
}

// TestSegmentedFleetParityDuringCompaction keeps querying while every
// librarian compacts its segments concurrently. Compaction changes the
// manifest shape, never its contents, so each answer — whichever snapshot
// it was computed from — must still equal the frozen reference exactly.
func TestSegmentedFleetParityDuringCompaction(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	seg, ups := newSegmentedFleet(t, corpus, order)
	if _, err := seg.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}

	const q = "alpha federal wallstreet"
	want, err := f.recep.Query(ModeCV, q, 15, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, up := range ups {
		wg.Add(1)
		go func(u *librarian.Librarian) {
			defer wg.Done()
			_ = u.Compact(context.Background())
		}(up)
	}
	for i := 0; i < 30; i++ {
		got, err := seg.Query(ModeCV, q, 15, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnswers(t, fmt.Sprintf("during compaction (query %d)", i), got.Answers, want.Answers)
	}
	wg.Wait()

	for name, up := range ups {
		if got := len(up.SegmentStats().Segments); got != 1 {
			t.Fatalf("%s: %d segments after Compact, want 1", name, got)
		}
	}
	got, err := seg.Query(ModeCV, q, 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswers(t, "after compaction", got.Answers, want.Answers)
}

// TestCacheInvalidationUnderRapidEpochs streams many one-document batches —
// each publication (and each background merge) bumps the epoch — into a
// cache-enabled pool wired via OnUpdate. However fast the epochs come, a
// query issued after a Flush must never be served a stale cached answer.
func TestCacheInvalidationUnderRapidEpochs(t *testing.T) {
	a := testAnalyzer()
	up, err := librarian.Build("UP", []store.Document{
		{ID: 0, Title: "d0", Text: "alpha base one"},
		{ID: 1, Title: "d1", Text: "alpha base two"},
	}, librarian.BuildOptions{Analyzer: a})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	// Tiny tiers + small fan-in: merges fire constantly between batches.
	if err := up.ConfigureIngest(librarian.IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2}); err != nil {
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

	ctx := context.Background()
	const rounds = 8
	for i := 0; i < rounds; i++ {
		// Prime the cache with the current collection…
		if _, err := pool.Query(ModeCN, "alpha", 50, Options{}); err != nil {
			t.Fatal(err)
		}
		// …then grow it by one doc and demand a fresh answer.
		if err := up.Ingest(ctx, []store.Document{
			{Title: fmt.Sprintf("r%d", i), Text: fmt.Sprintf("alpha ingest round%d", i)},
		}); err != nil {
			t.Fatal(err)
		}
		if err := up.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := pool.Query(ModeCN, "alpha", 50, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace.CacheHit {
			t.Fatalf("round %d: stale cache hit across an ingest publication", i)
		}
		if len(res.Answers) != 2+i+1 {
			t.Fatalf("round %d: %d answers, want %d", i, len(res.Answers), 2+i+1)
		}
	}

	stats, ok := pool.CacheStats()
	if !ok {
		t.Fatal("no cache stats on a cache-enabled pool")
	}
	if stats.Invalidations < rounds {
		t.Fatalf("invalidations = %d, want >= %d (one per published batch)", stats.Invalidations, rounds)
	}

	// Quiesce the pipeline: with no publications in flight, caching works
	// normally again — the repeat is a hit.
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Query(ModeCN, "alpha", 50, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(ModeCN, "alpha", 50, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("repeat after quiescence was not a cache hit")
	}
	if len(res.Answers) != 2+rounds {
		t.Fatalf("final collection has %d alpha docs, want %d", len(res.Answers), 2+rounds)
	}
}
