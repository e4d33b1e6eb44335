package search

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/oracle"
)

// checkRanking holds a top-k ranking against the oracle's scores, indexed
// by document. Documents whose scores are mathematically tied (w·ln2·ln3
// against w·ln3·ln2) come out an ULP apart, in the kernel and in the oracle
// independently, so documents are not compared rank by rank. Instead: the
// ranking holds min(k, matching) results, rank i holds the oracle's i-th
// best score, that score is the oracle's score for the document holding it,
// and the order is score-descending with exact ties by ascending document,
// so the tie-break also decides who makes the cut. It returns "" when the
// ranking holds.
func checkRanking(got []Result, want []float64, k int) string {
	var best []float64
	for _, s := range want {
		if s > 0 {
			best = append(best, s)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(best)))
	if len(got) != min(k, len(best)) {
		return fmt.Sprintf("%d results, the oracle has %d of %d matching", len(got), min(k, len(best)), len(best))
	}
	for i, r := range got {
		if int(r.Doc) >= len(want) || math.Abs(r.Score-want[r.Doc]) > 1e-9 || math.Abs(r.Score-best[i]) > 1e-9 {
			return fmt.Sprintf("rank %d is %+v; the oracle's rank %d scores %.17g", i, r, i, best[i])
		}
		if i > 0 && (got[i-1].Score < r.Score || got[i-1].Score == r.Score && got[i-1].Doc >= r.Doc) {
			return fmt.Sprintf("ranks %d and %d out of order: %+v, %+v", i-1, i, got[i-1], r)
		}
	}
	return ""
}

// oracleCorpus draws seed's corpus for the oracle properties: from a
// handful of documents to, every fourth seed, lists spanning many skip
// blocks, over a skewed vocabulary, with repeated documents so exact ties
// occur. It returns the generator for the seed's queries, the documents,
// their analysed terms and the vocabulary size.
func oracleCorpus(seed int64) (*rand.Rand, []string, [][]string, int) {
	a := plainAnalyzer()
	rng := rand.New(rand.NewSource(seed))
	ndocs := 5 + rng.Intn(80)
	if seed%4 == 0 {
		ndocs = 300 + rng.Intn(600)
	}
	vocab := 5 + rng.Intn(60)
	docs := make([]string, ndocs)
	terms := make([][]string, ndocs)
	for d := range docs {
		if d > 0 && rng.Intn(8) == 0 {
			docs[d] = docs[rng.Intn(d)]
		} else {
			var w []string
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				// Skewed, so low term ids are common.
				w = append(w, "t"+strconv.Itoa(int(math.Pow(rng.Float64(), 2)*float64(vocab))))
			}
			docs[d] = strings.Join(w, " ")
		}
		terms[d] = a.Terms(nil, docs[d])
	}
	return rng, docs, terms, vocab
}

// oracleQuery draws a query of 1–6 terms over vocab, some of them sometimes
// absent from the collection.
func oracleQuery(rng *rand.Rand, vocab int) string {
	var qt []string
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		qt = append(qt, "t"+strconv.Itoa(rng.Intn(vocab+3))) // +3: sometimes absent
	}
	return strings.Join(qt, " ")
}

// TestEngineAgainstBruteForce is the kernel's oracle property. On random
// corpora cut into 1, 2 and 5 parts, every evaluator's RankParts, with
// collection weights derived (nil) and supplied (CV), must hold the oracle's
// ranking and be == to every other combination's.
func TestEngineAgainstBruteForce(t *testing.T) {
	a := plainAnalyzer()
	for seed := int64(1); seed <= 24; seed++ {
		rng, docs, terms, vocab := oracleCorpus(seed)
		whole := buildEngine(t, docs)
		partings := [][]Part{{{Engine: whole}}, cutParts(t, docs, 2), cutParts(t, docs, 5)}
		for trial := 0; trial < 6; trial++ {
			q := oracleQuery(rng, vocab)
			k := 1 + rng.Intn(len(docs)+5)
			want := oracle.Scores(terms, a.Terms(nil, q))
			var first []Result
			ran := false
			for _, weights := range []map[string]float64{nil, whole.QueryWeights(whole.ParseQuery(q))} {
				for _, parts := range partings {
					label := fmt.Sprintf("seed %d query %q k=%d parts=%d explicit=%v", seed, q, k, len(parts), weights != nil)
					for _, eval := range []Evaluator{EvalExact, EvalMaxScore, EvalWAND} {
						got, _, err := RankParts(nil, NewScratch(), parts, q, k, weights, eval)
						if err != nil {
							t.Fatalf("%s %v: %v", label, eval, err)
						}
						if msg := checkRanking(got, want, k); msg != "" {
							t.Fatalf("%s %v: %s", label, eval, msg)
						}
						if !ran {
							first, ran = got, true
						} else if !slices.Equal(got, first) {
							t.Fatalf("%s %v: %v, the one-part exact ranking %v", label, eval, got, first)
						}
					}
				}
			}
		}
	}
}

// TestScoreDocsAgainstBruteForce extends the property to the CI path: on the
// same random corpora and partings, ScoreParts must give each nominated
// document the oracle's score, in the nominated order, with collection
// weights derived and supplied.
func TestScoreDocsAgainstBruteForce(t *testing.T) {
	a := plainAnalyzer()
	for seed := int64(1); seed <= 24; seed++ {
		rng, docs, terms, vocab := oracleCorpus(seed)
		whole := buildEngine(t, docs)
		partings := [][]Part{{{Engine: whole}}, cutParts(t, docs, 2), cutParts(t, docs, 5)}
		for trial := 0; trial < 6; trial++ {
			q := oracleQuery(rng, vocab)
			want := oracle.Scores(terms, a.Terms(nil, q))
			targets := rng.Perm(len(docs))[:1+rng.Intn(len(docs))]
			nominated := make([]uint32, len(targets))
			for i, d := range targets {
				nominated[i] = uint32(d)
			}
			for _, weights := range []map[string]float64{nil, whole.QueryWeights(whole.ParseQuery(q))} {
				for _, parts := range partings {
					label := fmt.Sprintf("seed %d query %q parts=%d explicit=%v", seed, q, len(parts), weights != nil)
					scored, _, err := ScoreParts(NewScratch(), parts, q, nominated, weights, 0)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(scored) != len(nominated) {
						t.Fatalf("%s: %d results for %d nominated", label, len(scored), len(nominated))
					}
					for i, r := range scored {
						if r.Doc != nominated[i] || math.Abs(r.Score-want[r.Doc]) > 1e-9 {
							t.Fatalf("%s: result %d is %+v, nominated %d with oracle score %.17g",
								label, i, r, nominated[i], want[nominated[i]])
						}
					}
				}
			}
		}
	}
}
