package core

import (
	"errors"
	"testing"

	"teraphim/internal/search"
)

// TestEvaluatorModesParity pins Options.Evaluator end to end: in every
// methodology (MS local, CN/CV over the wire, CI through the grouped central
// index plus ScoreDocs), the dynamic-pruning evaluators must return exactly
// the answers exact evaluation returns — same documents, bit-identical
// scores — because every evaluator in the stack is rank-safe.
func TestEvaluatorModesParity(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.recep.SetupCentralIndexRemote(10); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"alpha federal wallstreet",
		"w1 w2 w3 w4",
		"avalanche aurora w7",
	}
	for _, eval := range []search.Evaluator{search.EvalMaxScore, search.EvalWAND} {
		for _, q := range queries {
			// MS baseline, evaluated locally.
			msExact, err := f.mono.Query(q, 15, Options{})
			if err != nil {
				t.Fatal(err)
			}
			msGot, err := f.mono.Query(q, 15, Options{Evaluator: eval})
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdenticalAnswers(t, "MS/"+eval.String()+"/"+q, msGot.Answers, msExact.Answers)

			for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
				exact, err := f.recep.Query(mode, q, 15, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := f.recep.Query(mode, q, 15, Options{Evaluator: eval})
				if err != nil {
					t.Fatalf("%v/%v query %q: %v", mode, eval, q, err)
				}
				assertBitIdenticalAnswers(t, mode.String()+"/"+eval.String()+"/"+q, got.Answers, exact.Answers)
			}
		}
	}
}

// assertBitIdenticalAnswers is assertSameAnswers with exact score equality:
// rank-safe pruning reproduces the exact kernel's float operations, so even
// a 1e-9 tolerance would be too forgiving here.
func assertBitIdenticalAnswers(t *testing.T, label string, got, want []Answer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, exact has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("%s rank %d: %s, exact %s", label, i, got[i].Key(), want[i].Key())
		}
		if got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d (%s): score %.17g, exact %.17g",
				label, i, got[i].Key(), got[i].Score, want[i].Score)
		}
	}
}

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
