package search

// A brute-force reference implementation of the cosine measure, evaluated
// against the real engine on randomly generated corpora — the strongest
// correctness net in the package: any disagreement in scores, ordering or
// tie-breaking between the compressed-index evaluator and a naive
// map-based one fails the property.

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// refEngine evaluates the cosine measure with plain maps.
type refEngine struct {
	docs  []map[string]uint32 // per-doc term frequencies
	df    map[string]int
	wd    []float64
	terms func(string) []string
}

func newRefEngine(docs []string, analyze func(string) []string) *refEngine {
	e := &refEngine{df: map[string]int{}, terms: analyze}
	for _, text := range docs {
		counts := map[string]uint32{}
		for _, t := range analyze(text) {
			counts[t]++
		}
		var sum float64
		for t, f := range counts {
			e.df[t]++
			w := math.Log(float64(f) + 1)
			sum += w * w
		}
		e.docs = append(e.docs, counts)
		// The real index stores document weights as float32 (MG keeps
		// approximate weights); quantize identically so scores agree to
		// full float64 precision.
		e.wd = append(e.wd, float64(float32(math.Sqrt(sum))))
	}
	return e
}

func (e *refEngine) rank(query string, k int) []Result {
	qf := map[string]uint32{}
	for _, t := range e.terms(query) {
		qf[t]++
	}
	n := float64(len(e.docs))
	weights := map[string]float64{}
	var wq2 float64
	for t, f := range qf {
		if e.df[t] == 0 {
			continue
		}
		w := math.Log(float64(f)+1) * math.Log(n/float64(e.df[t])+1)
		weights[t] = w
		wq2 += w * w
	}
	if wq2 == 0 {
		wq2 = 1
	}
	wq := math.Sqrt(wq2)
	// Sum in one fixed term order: ranging over the weights map would add the
	// same contributions in a different order per document, so the reference
	// itself would score identical documents an ULP apart, differently per run.
	terms := make([]string, 0, len(weights))
	for t := range weights {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	var results []Result
	for d, counts := range e.docs {
		var dot float64
		for _, t := range terms {
			if f, ok := counts[t]; ok {
				dot += weights[t] * math.Log(float64(f)+1)
			}
		}
		if dot > 0 && e.wd[d] > 0 {
			results = append(results, Result{Doc: uint32(d), Score: dot / (wq * e.wd[d])})
		}
	}
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].Doc < results[j].Doc
	})
	if len(results) > k {
		results = results[:k]
	}
	return results
}

func TestEngineAgainstBruteForce(t *testing.T) {
	analyzer := plainAnalyzer()
	analyze := func(text string) []string { return analyzer.Terms(nil, text) }
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ndocs := rng.Intn(80) + 5
		vocab := rng.Intn(40) + 5
		docs := make([]string, ndocs)
		for d := range docs {
			var sb strings.Builder
			for j := 0; j < rng.Intn(30)+1; j++ {
				sb.WriteString("t" + strconv.Itoa(rng.Intn(vocab)) + " ")
			}
			docs[d] = sb.String()
		}
		engine := buildEngine(t, docs)
		ref := newRefEngine(docs, analyze)
		for trial := 0; trial < 5; trial++ {
			var qb strings.Builder
			for j := 0; j < rng.Intn(6)+1; j++ {
				qb.WriteString("t" + strconv.Itoa(rng.Intn(vocab+3)) + " ") // may include absent terms
			}
			k := rng.Intn(15) + 1
			query := qb.String()
			ranking, err := engine.Rank(query, k, nil)
			if err != nil {
				return false
			}
			got := ranking.Results
			// Every matching document, best first, from both sides.
			ranking, err = engine.Rank(query, ndocs, nil)
			if err != nil {
				return false
			}
			all := ranking.Results
			want := ref.rank(query, ndocs)
			if len(all) != len(want) || len(got) != min(k, len(all)) {
				t.Logf("seed %d query %q k %d: engine %d of %d results, reference %d", seed, query, k, len(got), len(all), len(want))
				return false
			}
			refScore := make(map[uint32]float64, len(want))
			for _, r := range want {
				refScore[r.Doc] = r.Score
			}
			// Documents whose scores are mathematically tied (w·ln2·ln3 against
			// w·ln3·ln2) come out an ULP apart, in the engine and in the
			// reference independently, so Doc is not compared rank by rank.
			// Instead: rank i holds the reference's i-th best score, that score
			// is the reference's score for the document holding it, the order
			// is score-descending with exact ties by ascending Doc, and the
			// top k is a prefix of the whole ranking, so the tie-break also
			// decides who makes the cut.
			for i, r := range all {
				rs, ok := refScore[r.Doc]
				if !ok || math.Abs(r.Score-rs) > 1e-9 || math.Abs(r.Score-want[i].Score) > 1e-9 {
					t.Logf("seed %d query %q rank %d: engine %+v, reference %+v, reference score of doc %v",
						seed, query, i, r, want[i], rs)
					return false
				}
				if i > 0 && (all[i-1].Score < r.Score || all[i-1].Score == r.Score && all[i-1].Doc >= r.Doc) {
					t.Logf("seed %d query %q: ranks %d and %d out of order: %+v, %+v", seed, query, i-1, i, all[i-1], r)
					return false
				}
				if i < len(got) && got[i] != r {
					t.Logf("seed %d query %q rank %d: top-%d has %+v, the whole ranking %+v", seed, query, i, k, got[i], r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestScoreDocsAgainstBruteForce extends the property to the CI fast path.
func TestScoreDocsAgainstBruteForce(t *testing.T) {
	analyzer := plainAnalyzer()
	analyze := func(text string) []string { return analyzer.Terms(nil, text) }
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ndocs := rng.Intn(200) + 10
		docs := make([]string, ndocs)
		for d := range docs {
			var sb strings.Builder
			for j := 0; j < rng.Intn(25)+1; j++ {
				sb.WriteString("t" + strconv.Itoa(rng.Intn(30)) + " ")
			}
			docs[d] = sb.String()
		}
		engine := buildEngine(t, docs)
		ref := newRefEngine(docs, analyze)
		query := "t1 t2 t3"
		all := ref.rank(query, ndocs)
		refScores := map[uint32]float64{}
		for _, r := range all {
			refScores[r.Doc] = r.Score
		}
		targets := []uint32{0, uint32(ndocs / 2), uint32(ndocs - 1)}
		ranking, err := engine.ScoreDocs(query, targets, nil)
		got := ranking.Results
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range got {
			if math.Abs(r.Score-refScores[targets[i]]) > 1e-9 {
				t.Fatalf("trial %d doc %d: engine %g, reference %g",
					trial, targets[i], r.Score, refScores[targets[i]])
			}
		}
	}
}
