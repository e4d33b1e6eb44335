package core

import (
	"errors"
	"testing"

	"teraphim/internal/search"
)

// TestEvaluatorRejectedUpFront: an out-of-range Options.Evaluator fails the
// query with the typed error before any librarian exchange, in both the
// receptionist and MS paths.
func TestEvaluatorRejectedUpFront(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	bad := Options{Evaluator: search.Evaluator(9)}
	res, err := f.recep.Query(ModeCN, "alpha", 10, bad)
	if !errors.Is(err, search.ErrUnknownEvaluator) {
		t.Fatalf("CN err = %v, want ErrUnknownEvaluator", err)
	}
	if res != nil {
		t.Fatalf("CN returned a result alongside the error: %+v", res)
	}
	if _, err := f.mono.Query("alpha", 10, bad); !errors.Is(err, search.ErrUnknownEvaluator) {
		t.Fatalf("MS err = %v, want ErrUnknownEvaluator", err)
	}
}

// TestEvaluatorCacheKeyFragmentation: queries that differ only in evaluator
// must not share a cache entry — their traces differ even though the
// rankings agree — while repeating the same evaluator hits.
func TestEvaluatorCacheKeyFragmentation(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	fed := f.recep.Federation()
	keyFor := func(opts Options) cacheKey {
		p, err := resolve(fed, ModeCN, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p.cacheKey
	}
	exact := keyFor(Options{})
	maxsc := keyFor(Options{Evaluator: search.EvalMaxScore})
	wand := keyFor(Options{Evaluator: search.EvalWAND})
	if exact == maxsc || exact == wand || maxsc == wand {
		t.Fatalf("evaluator does not fragment the cache key: %+v / %+v / %+v", exact, maxsc, wand)
	}
	again := keyFor(Options{Evaluator: search.EvalMaxScore})
	if again != maxsc {
		t.Fatalf("same evaluator produced different keys: %+v vs %+v", again, maxsc)
	}
}
