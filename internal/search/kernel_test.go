package search

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// This file pins the zero-allocation kernel to the seed evaluator it
// replaced. goldenRank and goldenScoreDocs below are faithful copies of the
// pre-kernel implementation — map accumulators, math.Log per posting,
// container/heap selection, score = s/(W_q·W_d) — kept as executable
// specification: the kernel must reproduce their doc-id order exactly and
// their scores to 1e-9.

// goldenHeap is the seed's container/heap selector.
type goldenHeap []Result

func (h goldenHeap) Len() int            { return len(h) }
func (h goldenHeap) Less(i, j int) bool  { return LessResult(h[i], h[j]) }
func (h goldenHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *goldenHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *goldenHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// goldenTerms analyses the query into (term, f_qt) pairs in appearance
// order — the deterministic order both evaluators must share so that score
// rounding is comparable at the ULP level.
func goldenTerms(e *Engine, query string) (terms []string, fqts map[string]uint32) {
	fqts = make(map[string]uint32)
	for _, t := range e.Analyzer().Terms(nil, query) {
		if fqts[t] == 0 {
			terms = append(terms, t)
		}
		fqts[t]++
	}
	return terms, fqts
}

// goldenRank is the seed Engine.Rank: map accumulators over full-list Next
// iteration, heap top-k, s/(wq·wd) normalisation.
func goldenRank(t *testing.T, e *Engine, query string, k int, weights map[string]float64) []Result {
	t.Helper()
	terms, fqts := goldenTerms(e, query)
	if len(terms) == 0 {
		t.Fatalf("golden: empty query %q", query)
	}
	var wq float64
	{
		var sum float64
		for _, term := range terms {
			var w float64
			if weights != nil {
				w = weights[term]
			} else {
				w = CollectionWeight(fqts[term], e.Index().TermFreq(term), e.Index().NumDocs())
			}
			sum += w * w
		}
		if sum == 0 {
			sum = 1
		}
		wq = math.Sqrt(sum)
	}
	acc := make(map[uint32]float64, 256)
	for _, term := range terms {
		var wqt float64
		if weights != nil {
			wqt = weights[term]
		} else {
			wqt = CollectionWeight(fqts[term], e.Index().TermFreq(term), e.Index().NumDocs())
		}
		if wqt <= 0 {
			continue
		}
		cur, err := e.Index().Cursor(term)
		if err != nil {
			continue
		}
		for cur.Next() {
			p := cur.Posting()
			acc[p.Doc] += wqt * math.Log(float64(p.FDT)+1)
		}
	}
	h := make(goldenHeap, 0, k)
	inv := e.Index().InvDocWeights() // 1/W_d, 0 where W_d is
	for doc, s := range acc {
		if inv[doc] == 0 {
			continue
		}
		r := Result{Doc: doc, Score: s * inv[doc] / wq}
		if len(h) < k {
			heap.Push(&h, r)
			continue
		}
		if LessResult(h[0], r) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	out := make([]Result, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Result)
	}
	return out
}

// goldenScoreDocs is the seed Engine.ScoreDocs: sorted targets, skip-based
// Advance, map accumulators, s/(wq·wd).
func goldenScoreDocs(t *testing.T, e *Engine, query string, docs []uint32, weights map[string]float64) []Result {
	t.Helper()
	terms, fqts := goldenTerms(e, query)
	var wq float64
	{
		var sum float64
		for _, term := range terms {
			var w float64
			if weights != nil {
				w = weights[term]
			} else {
				w = CollectionWeight(fqts[term], e.Index().TermFreq(term), e.Index().NumDocs())
			}
			sum += w * w
		}
		if sum == 0 {
			sum = 1
		}
		wq = math.Sqrt(sum)
	}
	sorted := append([]uint32(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	acc := make(map[uint32]float64, len(docs))
	for _, term := range terms {
		var wqt float64
		if weights != nil {
			wqt = weights[term]
		} else {
			wqt = CollectionWeight(fqts[term], e.Index().TermFreq(term), e.Index().NumDocs())
		}
		if wqt <= 0 {
			continue
		}
		cur, err := e.Index().Cursor(term)
		if err != nil {
			continue
		}
		for _, d := range sorted {
			if !cur.Advance(d) {
				break
			}
			if p := cur.Posting(); p.Doc == d {
				acc[d] += wqt * math.Log(float64(p.FDT)+1)
			}
		}
	}
	out := make([]Result, len(docs))
	inv := e.Index().InvDocWeights()
	for i, d := range docs {
		score := 0.0
		if s := acc[d]; s > 0 && inv[d] > 0 {
			score = s * inv[d] / wq
		}
		out[i] = Result{Doc: d, Score: score}
	}
	return out
}

// goldenCorpus builds a synthetic corpus big enough to exercise skip blocks
// (long lists), multi-block decode, and rare terms.
func goldenCorpus(t testing.TB) (*Engine, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(83))
	var docs []string
	for d := 0; d < 1200; d++ {
		var sb []string
		terms := 20 + rng.Intn(50)
		for i := 0; i < terms; i++ {
			// Zipf-ish skew: low term ids are common, so their lists span
			// many skip blocks.
			id := int(math.Floor(math.Pow(rng.Float64(), 2.2) * 400))
			sb = append(sb, "t"+itoa(id))
		}
		docs = append(docs, join(sb))
	}
	queries := []string{
		"t1 t2 t3",
		"t0 t0 t17 t321",         // repeated term: f_qt = 2
		"t5 t80 t200 t399 t1000", // t1000 absent from the collection
		"t9",
		"t2 t4 t8 t16 t32 t64 t128 t256",
	}
	return buildEngine(t, docs), queries
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

func join(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out
}

// TestGoldenRankMatchesSeedEvaluator pins Rank (pooled scratch) to the seed
// evaluator: identical doc ids, scores within 1e-9, at k=10 and k=100, with
// both nil (MS/CN) and explicit (CV) weights.
func TestGoldenRankMatchesSeedEvaluator(t *testing.T) {
	e, queries := goldenCorpus(t)
	for _, k := range []int{10, 100} {
		for _, q := range queries {
			for _, mode := range []string{"local", "explicit"} {
				var weights map[string]float64
				if mode == "explicit" {
					weights = e.QueryWeights(e.ParseQuery(q))
				}
				want := goldenRank(t, e, q, k, weights)
				ranking, err := e.Rank(q, k, weights)
				got := ranking.Results
				if err != nil {
					t.Fatalf("k=%d query %q (%s): %v", k, q, mode, err)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d query %q (%s): kernel %d results, seed %d", k, q, mode, len(got), len(want))
				}
				for i := range want {
					if got[i].Doc != want[i].Doc {
						t.Fatalf("k=%d query %q (%s) rank %d: kernel doc %d, seed doc %d",
							k, q, mode, i, got[i].Doc, want[i].Doc)
					}
					if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
						t.Fatalf("k=%d query %q (%s) rank %d: kernel score %.17g, seed %.17g",
							k, q, mode, i, got[i].Score, want[i].Score)
					}
				}
			}
		}
	}
}

// TestGoldenScoreDocsMatchesSeedEvaluator pins ScoreDocs the same way.
func TestGoldenScoreDocsMatchesSeedEvaluator(t *testing.T) {
	e, queries := goldenCorpus(t)
	rng := rand.New(rand.NewSource(21))
	n := e.Index().NumDocs()
	for _, q := range queries {
		var targets []uint32
		for i := 0; i < 40; i++ {
			targets = append(targets, uint32(rng.Intn(int(n))))
		}
		want := goldenScoreDocs(t, e, q, targets, nil)
		ranking, err := e.ScoreDocs(q, targets, nil)
		got := ranking.Results
		if err != nil {
			t.Fatalf("query %q: %v", q, err)
		}
		for i := range want {
			if got[i].Doc != want[i].Doc {
				t.Fatalf("query %q target %d: kernel doc %d, seed doc %d", q, i, got[i].Doc, want[i].Doc)
			}
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("query %q doc %d: kernel score %.17g, seed %.17g",
					q, got[i].Doc, got[i].Score, want[i].Score)
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
