package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// dynamicEvaluators are the two rank-safe pruning evaluators under test.
var dynamicEvaluators = []Evaluator{EvalMaxScore, EvalWAND}

// TestDynamicPruningGoldenRankSafety is the rank-safety wall: MaxScore and
// WAND must return exactly the documents the exact evaluator returns, with
// bit-identical scores (asserted exactly — the evaluators reproduce the
// exact kernel's summation order — with the ISSUE's 1e-9 bound implied), at
// every tested k, with both local (MS/CN) and explicit (CV) weights.
func TestDynamicPruningGoldenRankSafety(t *testing.T) {
	e, queries := goldenCorpus(t)
	for _, eval := range dynamicEvaluators {
		for _, k := range []int{1, 10, 100} {
			for _, q := range queries {
				for _, mode := range []string{"local", "explicit"} {
					var weights map[string]float64
					if mode == "explicit" {
						weights = e.QueryWeights(e.ParseQuery(q))
					}
					exact, err := e.Rank(q, k, weights)
					if err != nil {
						t.Fatalf("exact k=%d query %q (%s): %v", k, q, mode, err)
					}
					got, err := rankEval(e, q, k, weights, eval)
					if err != nil {
						t.Fatalf("%v k=%d query %q (%s): %v", eval, k, q, mode, err)
					}
					assertSameRanking(t, fmt.Sprintf("%v k=%d query %q (%s)", eval, k, q, mode),
						got.Results, exact.Results)
				}
			}
		}
	}
}

// rankEval is RankParts over e alone under eval, on a fresh Scratch.
func rankEval(e *Engine, q string, k int, weights map[string]float64, eval Evaluator) (Ranking, error) {
	results, stats, err := RankParts(nil, NewScratch(), []Part{{Engine: e}}, q, k, weights, eval)
	return Ranking{Results: results, Stats: stats}, err
}

func assertSameRanking(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, exact has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc {
			t.Fatalf("%s rank %d: doc %d, exact doc %d", label, i, got[i].Doc, want[i].Doc)
		}
		if got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d doc %d: score %.17g, exact %.17g",
				label, i, got[i].Doc, got[i].Score, want[i].Score)
		}
	}
}

// TestDynamicPruningRandomizedParity hammers the evaluators with random
// corpora and random queries across several seeds — small collections where
// lists are shorter than a skip block, single-term queries, absent terms,
// high-k requests exceeding the candidate set.
func TestDynamicPruningRandomizedParity(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nDocs := 50 + rng.Intn(400)
		vocab := 5 + rng.Intn(60)
		var docs []string
		for d := 0; d < nDocs; d++ {
			var sb []string
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				sb = append(sb, "w"+itoa(rng.Intn(vocab)))
			}
			docs = append(docs, join(sb))
		}
		e := buildEngine(t, docs)
		for trial := 0; trial < 25; trial++ {
			var qt []string
			for i, n := 0, 1+rng.Intn(6); i < n; i++ {
				qt = append(qt, "w"+itoa(rng.Intn(vocab+3))) // +3: sometimes absent
			}
			q := join(qt)
			k := 1 + rng.Intn(nDocs+10)
			exact, exactErr := e.Rank(q, k, nil)
			for _, eval := range dynamicEvaluators {
				got, err := rankEval(e, q, k, nil, eval)
				if (err == nil) != (exactErr == nil) || (err != nil && !errors.Is(err, exactErr) && err.Error() != exactErr.Error()) {
					t.Fatalf("seed %d %v query %q k=%d: err %v, exact err %v", seed, eval, q, k, err, exactErr)
				}
				if err != nil {
					continue
				}
				assertSameRanking(t, fmt.Sprintf("seed %d %v query %q k=%d", seed, eval, q, k),
					got.Results, exact.Results)
			}
		}
	}
}

// TestDynamicPruningStatsUnpruned pins the metrics-accounting contract:
// with k at least the candidate-set size no pruning can trigger, and every
// Stats counter — lists fetched, bytes read, postings decoded, candidates
// scored, terms looked — must equal the exact evaluator's exactly. Smaller
// k may legitimately drop PostingsDecoded/CandidateDocs (that is the whole
// point), but never the list-level charges.
func TestDynamicPruningStatsUnpruned(t *testing.T) {
	e, queries := goldenCorpus(t)
	k := int(e.Index().NumDocs()) + 1
	for _, q := range queries {
		exact, err := e.Rank(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, eval := range dynamicEvaluators {
			got, err := rankEval(e, q, k, nil, eval)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats != exact.Stats {
				t.Fatalf("%v query %q: unpruned stats %+v, exact %+v", eval, q, got.Stats, exact.Stats)
			}
		}
	}
}

// TestDynamicPruningSavesWork verifies pruning actually happens at small k:
// fewer candidates fully scored and no more postings decoded than
// exhaustive evaluation, while (rank safety, checked elsewhere) returning
// identical answers.
func TestDynamicPruningSavesWork(t *testing.T) {
	e, queries := goldenCorpus(t)
	for _, eval := range dynamicEvaluators {
		saved := false
		for _, q := range queries {
			exact, err := e.Rank(q, 10, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rankEval(e, q, 10, nil, eval)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.CandidateDocs > exact.Stats.CandidateDocs {
				t.Fatalf("%v query %q: %d candidates scored, exact %d", eval, q, got.Stats.CandidateDocs, exact.Stats.CandidateDocs)
			}
			if got.Stats.PostingsDecoded > exact.Stats.PostingsDecoded {
				t.Fatalf("%v query %q: %d postings decoded, exact %d", eval, q, got.Stats.PostingsDecoded, exact.Stats.PostingsDecoded)
			}
			if got.Stats.CandidateDocs < exact.Stats.CandidateDocs/2 {
				saved = true
			}
		}
		if !saved {
			t.Fatalf("%v: no query saved at least half the candidates at k=10", eval)
		}
	}
}

// TestDynamicPruningAllocations pins the zero-steady-state-allocation
// property on the new evaluators: a warmed-up caller-owned-Scratch
// evaluation allocates at most the returned result slice.
func TestDynamicPruningAllocations(t *testing.T) {
	e, queries := goldenCorpus(t)
	for _, eval := range dynamicEvaluators {
		s := NewScratch()
		for _, q := range queries {
			if _, _, err := e.RankWithEval(s, q, 100, nil, eval); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			q := q
			allocs := testing.AllocsPerRun(50, func() {
				if _, _, err := e.RankWithEval(s, q, 10, nil, eval); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 2 {
				t.Fatalf("%v query %q: %v allocs per steady-state rank, want <= 2", eval, q, allocs)
			}
		}
	}
}

// TestRankContextEvalCancellation: a pre-cancelled context stops RankParts
// under every evaluator before (or promptly after) it starts.
func TestRankContextEvalCancellation(t *testing.T) {
	e, queries := goldenCorpus(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eval := range []Evaluator{EvalExact, EvalMaxScore, EvalWAND} {
		_, _, err := RankParts(ctx, NewScratch(), []Part{{Engine: e}}, queries[0], 10, nil, eval)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", eval, err)
		}
	}
}

// TestEvaluatorValidation: unknown evaluator values are rejected up front
// with the typed error, and the parse/String round trip holds.
func TestEvaluatorValidation(t *testing.T) {
	e, queries := goldenCorpus(t)
	if _, err := rankEval(e, queries[0], 10, nil, Evaluator(9)); !errors.Is(err, ErrUnknownEvaluator) {
		t.Fatalf("err = %v, want ErrUnknownEvaluator", err)
	}
	for _, eval := range []Evaluator{EvalExact, EvalMaxScore, EvalWAND} {
		got, err := ParseEvaluator(eval.String())
		if err != nil || got != eval {
			t.Fatalf("ParseEvaluator(%q) = %v, %v", eval.String(), got, err)
		}
	}
	if _, err := ParseEvaluator("bm25"); !errors.Is(err, ErrUnknownEvaluator) {
		t.Fatalf("ParseEvaluator(bm25) err = %v, want ErrUnknownEvaluator", err)
	}
	if got, err := ParseEvaluator(""); err != nil || got != EvalExact {
		t.Fatalf("ParseEvaluator(\"\") = %v, %v, want EvalExact", got, err)
	}
	if Evaluator(9).Valid() {
		t.Fatal("Evaluator(9).Valid() = true")
	}
}

// TestMaxFDTAccessors pins the lazily-built document-sorted MaxFDT table
// against a brute-force recount, and MaxInvDocWeight against the weight
// table.
func TestMaxFDTAccessors(t *testing.T) {
	e, _ := goldenCorpus(t)
	ix := e.Index()
	ix.Terms(func(term string, ft uint32) bool {
		cur, err := ix.Cursor(term)
		if err != nil {
			t.Fatal(err)
		}
		var want uint32
		for cur.Next() {
			if p := cur.Posting(); p.FDT > want {
				want = p.FDT
			}
		}
		if got := ix.MaxFDT(term); got != want {
			t.Fatalf("MaxFDT(%q) = %d, want %d", term, got, want)
		}
		return true
	})
	if ix.MaxFDT("no-such-term") != 0 {
		t.Fatal("MaxFDT of absent term != 0")
	}
	inv := ix.InvDocWeights()
	want := 0.0
	for _, v := range inv {
		if v > want {
			want = v
		}
	}
	if got := ix.MaxInvDocWeight(); got != want || !(got > 0) {
		t.Fatalf("MaxInvDocWeight = %v, want %v", got, want)
	}
}
