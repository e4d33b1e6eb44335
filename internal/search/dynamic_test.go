package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/oracle"
)

// dynamicEvaluators are the two rank-safe pruning evaluators under test.
var dynamicEvaluators = []Evaluator{EvalMaxScore, EvalWAND}

// rankEval is RankParts over e alone under eval, on a fresh Scratch.
func rankEval(e *Engine, q string, k int, weights map[string]float64, eval Evaluator) (Ranking, error) {
	results, stats, err := RankParts(nil, NewScratch(), []Part{{Engine: e}}, q, k, weights, eval)
	return Ranking{Results: results, Stats: stats}, err
}

// TestDynamicPruningGoldenRankSafety is the rank-safety wall: on the golden
// corpus, whose common lists span many skip blocks, MaxScore and WAND must
// return exactly the ranking the exact evaluator returns — == documents and
// scores, as they reproduce its summation order — at k = 1, 10 and 100,
// with both derived (MS/CN) and supplied (CV) weights, and that ranking must
// hold the oracle's.
func TestDynamicPruningGoldenRankSafety(t *testing.T) {
	e, want := goldenOracle(t)
	for _, k := range []int{1, 10, 100} {
		for qi, q := range goldenQueries {
			for _, weights := range []map[string]float64{nil, e.QueryWeights(e.ParseQuery(q))} {
				label := fmt.Sprintf("k=%d query %q explicit=%v", k, q, weights != nil)
				exact, err := rankEval(e, q, k, weights, EvalExact)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if msg := checkRanking(exact.Results, want[qi], k); msg != "" {
					t.Fatalf("%s: %s", label, msg)
				}
				for _, eval := range dynamicEvaluators {
					got, err := rankEval(e, q, k, weights, eval)
					if err != nil {
						t.Fatalf("%s %v: %v", label, eval, err)
					}
					if !slices.Equal(got.Results, exact.Results) {
						t.Fatalf("%s %v: %v, exact %v", label, eval, got.Results, exact.Results)
					}
				}
			}
		}
	}
}

// TestDynamicPruningRandomizedParity hammers the evaluators with random
// corpora and queries — collections where lists are shorter than a skip
// block and longer, single-term queries, absent terms, k beyond the
// candidate set: every evaluator's ranking must == the exact one, which must
// hold the oracle's.
func TestDynamicPruningRandomizedParity(t *testing.T) {
	a := plainAnalyzer()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nDocs := 50 + rng.Intn(400)
		vocab := 5 + rng.Intn(60)
		docs := make([]string, nDocs)
		terms := make([][]string, nDocs)
		for d := range docs {
			var w []string
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				w = append(w, "t"+strconv.Itoa(rng.Intn(vocab)))
			}
			docs[d] = strings.Join(w, " ")
			terms[d] = a.Terms(nil, docs[d])
		}
		e := buildEngine(t, docs)
		for trial := 0; trial < 25; trial++ {
			q := oracleQuery(rng, vocab)
			k := 1 + rng.Intn(nDocs+10)
			label := fmt.Sprintf("seed %d query %q k=%d", seed, q, k)
			exact, err := rankEval(e, q, k, nil, EvalExact)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if msg := checkRanking(exact.Results, oracle.Scores(terms, a.Terms(nil, q)), k); msg != "" {
				t.Fatalf("%s: %s", label, msg)
			}
			for _, eval := range dynamicEvaluators {
				got, err := rankEval(e, q, k, nil, eval)
				if err != nil {
					t.Fatalf("%s %v: %v", label, eval, err)
				}
				if !slices.Equal(got.Results, exact.Results) {
					t.Fatalf("%s %v: %v, exact %v", label, eval, got.Results, exact.Results)
				}
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
