package search

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"teraphim/internal/oracle"
)

// goldenDocs is a synthetic corpus big enough to exercise skip blocks (long
// lists), multi-block decode, and rare terms, and goldenQueries the queries
// run over it.
func goldenDocs() []string {
	rng := rand.New(rand.NewSource(83))
	var docs []string
	for d := 0; d < 1200; d++ {
		var sb []string
		terms := 20 + rng.Intn(50)
		for i := 0; i < terms; i++ {
			// Zipf-ish skew: low term ids are common, so their lists span
			// many skip blocks.
			id := int(math.Floor(math.Pow(rng.Float64(), 2.2) * 400))
			sb = append(sb, "t"+strconv.Itoa(id))
		}
		docs = append(docs, strings.Join(sb, " "))
	}
	return docs
}

var goldenQueries = []string{
	"t1 t2 t3",
	"t0 t0 t17 t321",         // repeated term: f_qt = 2
	"t5 t80 t200 t399 t1000", // t1000 absent from the collection
	"t9",
	"t2 t4 t8 t16 t32 t64 t128 t256",
}

// goldenCorpus indexes goldenDocs.
func goldenCorpus(t testing.TB) (*Engine, []string) {
	t.Helper()
	return buildEngine(t, goldenDocs()), goldenQueries
}

// goldenOracle indexes goldenDocs and returns, for each of goldenQueries,
// the oracle's score of every document.
func goldenOracle(t testing.TB) (*Engine, [][]float64) {
	t.Helper()
	a := plainAnalyzer()
	docs := goldenDocs()
	terms := make([][]string, len(docs))
	for d, text := range docs {
		terms[d] = a.Terms(nil, text)
	}
	want := make([][]float64, len(goldenQueries))
	for i, q := range goldenQueries {
		want[i] = oracle.Scores(terms, a.Terms(nil, q))
	}
	return buildEngine(t, docs), want
}

// TestGoldenRankMatchesSeedEvaluator pins Rank (pooled scratch) to the
// cosine measure on the golden corpus: it must hold the oracle's ranking at
// k=10 and k=100, with both nil (MS/CN) and explicit (CV) weights.
func TestGoldenRankMatchesSeedEvaluator(t *testing.T) {
	e, want := goldenOracle(t)
	for _, k := range []int{10, 100} {
		for qi, q := range goldenQueries {
			for _, weights := range []map[string]float64{nil, e.QueryWeights(e.ParseQuery(q))} {
				ranking, err := e.Rank(q, k, weights)
				if err != nil {
					t.Fatalf("k=%d query %q explicit=%v: %v", k, q, weights != nil, err)
				}
				if msg := checkRanking(ranking.Results, want[qi], k); msg != "" {
					t.Fatalf("k=%d query %q explicit=%v: %s", k, q, weights != nil, msg)
				}
			}
		}
	}
}

// TestGoldenScoreDocsMatchesSeedEvaluator pins ScoreDocs the same way: each
// of 40 random targets, repeats included, gets the oracle's score, in the
// order asked.
func TestGoldenScoreDocsMatchesSeedEvaluator(t *testing.T) {
	e, want := goldenOracle(t)
	rng := rand.New(rand.NewSource(21))
	n := e.Index().NumDocs()
	for qi, q := range goldenQueries {
		var targets []uint32
		for i := 0; i < 40; i++ {
			targets = append(targets, uint32(rng.Intn(int(n))))
		}
		ranking, err := e.ScoreDocs(q, targets, nil)
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		if len(ranking.Results) != len(targets) {
			t.Fatalf("query %q: %d results for %d targets", q, len(ranking.Results), len(targets))
		}
		for i, r := range ranking.Results {
			if r.Doc != targets[i] || math.Abs(r.Score-want[qi][r.Doc]) > 1e-9 {
				t.Fatalf("query %q target %d: kernel %+v, oracle doc %d at %.17g",
					q, i, r, targets[i], want[qi][targets[i]])
			}
		}
	}
}

// TestRankSteadyStateAllocations pins the kernel's headline property: with
// a caller-owned Scratch, a warmed-up RankParts performs at most 2 allocations
// (the returned result slice; one spare for incidental growth).
func TestRankSteadyStateAllocations(t *testing.T) {
	e, queries := goldenCorpus(t)
	s := NewScratch()
	parts := []Part{{Engine: e}}
	// Warm up: size the accumulators, cursor buffer, heap backing, and the
	// index's reciprocal-weight cache.
	for _, q := range queries {
		if _, _, err := RankParts(nil, s, parts, q, 100, nil, EvalExact); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries {
		q := q
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, err := RankParts(nil, s, parts, q, 10, nil, EvalExact); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("query %q: %v allocs per steady-state Rank, want <= 2", q, allocs)
		}
	}
}

// TestScoreDocsSteadyStateAllocations does the same for the CI fast path.
func TestScoreDocsSteadyStateAllocations(t *testing.T) {
	e, queries := goldenCorpus(t)
	s := NewScratch()
	targets := []uint32{3, 77, 150, 400, 801, 1100}
	for _, q := range queries {
		if _, _, err := e.ScoreDocsWith(s, q, targets, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := e.ScoreDocsWith(s, queries[0], targets, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("%v allocs per steady-state ScoreDocs, want <= 2", allocs)
	}
}

// TestRankAbsentTermsAllocateNothing: a CV rank whose weights name terms the
// index lacks allocates no more than one whose weights name only present
// terms, under every evaluator — a missing list is skipped, not reported
// through an error that is built and thrown away.
func TestRankAbsentTermsAllocateNothing(t *testing.T) {
	e, _ := goldenCorpus(t)
	weights := map[string]float64{"t1": 1.5, "t2": 1.2, "t3": 0.9, "t1000": 2, "t1001": 2, "t1002": 2, "t1003": 2}
	for _, eval := range []Evaluator{EvalExact, EvalMaxScore, EvalWAND} {
		s := NewScratch()
		allocs := func(q string) float64 {
			rank := func() {
				if _, _, err := e.RankWithEval(s, q, 10, weights, eval); err != nil {
					t.Fatal(err)
				}
			}
			rank()
			return testing.AllocsPerRun(50, rank)
		}
		present, absent := allocs("t1 t2 t3"), allocs("t1 t1000 t2 t1001 t3 t1002 t1003")
		if absent > present {
			t.Fatalf("%v: %v allocs with absent terms weighted, %v without", eval, absent, present)
		}
	}
}

// TestConcurrentRankWithPooledScratch races many goroutines through the
// shared scratch pool against one engine; every goroutine must see results
// identical to a serial evaluation. Run under -race (make race / verify)
// this proves Scratch hand-out is exclusive and the engine/index state it
// reads is genuinely immutable.
func TestConcurrentRankWithPooledScratch(t *testing.T) {
	e, queries := goldenCorpus(t)
	want := make([][]Result, len(queries))
	for i, q := range queries {
		ranking, err := e.Rank(q, 20, nil)
		r := ranking.Results
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	const goroutines = 8
	const rounds = 30
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				qi := (g + round) % len(queries)
				s := GetScratch()
				got, _, err := RankParts(nil, s, []Part{{Engine: e}}, queries[qi], 20, nil, EvalExact)
				s.Release()
				if err != nil {
					errc <- err
					return
				}
				exp := want[qi]
				if len(got) != len(exp) {
					errc <- fmt.Errorf("goroutine %d: %d results, want %d", g, len(got), len(exp))
					return
				}
				for i := range exp {
					if got[i] != exp[i] {
						errc <- fmt.Errorf("goroutine %d query %q rank %d: %+v, want %+v",
							g, queries[qi], i, got[i], exp[i])
						return
					}
				}
			}
			errc <- nil
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}
