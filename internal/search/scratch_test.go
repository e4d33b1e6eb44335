package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/oracle"
)

// This file pins the accumulator contract of Scratch — live iff non-zero,
// zeroed by the next reset whatever the previous evaluation was — against a
// fresh Scratch and the oracle, and the weight validation that contract
// relies on.

// cancelAfter is a context whose Err reports cancellation from its n+1th
// call on, so an evaluation checking between lists stops part-way through.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// hygieneDocs returns n documents: common words c0..c3 in most of them,
// rare words r0..r199 a few each, a filler-only document every tenth, and
// every seventh a repeat of an earlier one, so equal scores occur.
func hygieneDocs(rng *rand.Rand, n int) []string {
	docs := make([]string, n)
	for i := range docs {
		switch {
		case i%10 == 9:
			docs[i] = "filler plain"
			continue
		case i%7 == 6:
			docs[i] = docs[rng.Intn(i)]
			continue
		}
		var w []string
		for c := 0; c < 4; c++ {
			for rng.Float64() < 0.6 {
				w = append(w, "c"+strconv.Itoa(c))
			}
		}
		for r := 3 + rng.Intn(6); r > 0; r-- {
			w = append(w, "r"+strconv.Itoa(rng.Intn(200)))
		}
		docs[i] = strings.Join(w, " ")
	}
	return docs
}

// cutParts indexes docs as np engines tiling one id space.
func cutParts(t *testing.T, docs []string, np int) []Part {
	t.Helper()
	parts := make([]Part, np)
	for i := range parts {
		lo, hi := len(docs)*i/np, len(docs)*(i+1)/np
		parts[i] = Part{Index: buildEngine(t, docs[lo:hi]).Index(), Base: uint32(lo)}
	}
	return parts
}

// TestScratchHygiene reuses one Scratch across everything that can leave
// accumulators behind — collections growing then shrinking, evaluations
// cancelled between lists, RankParts and ScoreParts interleaved, 1, 2 and 5
// parts, queries touching more and fewer than an eighth of the accumulators
// — and requires every result and its CandidateDocs to == a fresh Scratch's,
// and, under collection weights, to hold the oracle's scores.
func TestScratchHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	queries := []string{
		"c0 c1 r5",           // most documents
		"r3 r77",             // a handful
		"c2 c2 r10 r11 r12",  // repeated term
		"c0 c1 c2 c3 filler", // nearly every document
		"r150 nowhere",       // one term absent
	}
	a := plainAnalyzer()
	shared := NewScratch()
	var sawClear, sawSparse bool
	for _, n := range []int{40, 900, 300, 25} { // grow, then shrink
		docs := hygieneDocs(rng, n)
		terms := make([][]string, n)
		for d, text := range docs {
			terms[d] = a.Terms(nil, text)
		}
		for _, np := range []int{1, 2, 5} {
			parts := cutParts(t, docs, np)
			for qi, q := range queries {
				k := []int{1, 10, 1000}[qi%3]
				qterms := a.Terms(nil, q)
				sorted := slices.Clone(qterms)
				slices.Sort(sorted)
				unique := len(slices.Compact(sorted))
				want := oracle.Scores(terms, qterms)
				matching := 0
				for _, s := range want {
					if s > 0 {
						matching++
					}
				}
				label := "n=" + strconv.Itoa(n) + " parts=" + strconv.Itoa(np) + " " + q
				explicit := make(map[string]float64)
				for _, term := range strings.Fields(q) {
					explicit[term] = 0.25 + 2*rng.Float64()
				}
				explicit["r77"] = 0 // weighs nothing: its list is skipped
				for _, weights := range []map[string]float64{nil, explicit} {
					// Cancelled before the first part's last list: half-built
					// accumulators are left behind.
					if _, _, err := RankParts(&cancelAfter{context.Background(), unique - 1}, shared, parts, a, q, k, weights); !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: cancelled rank err = %v", label, err)
					}

					got, st, err := RankParts(nil, shared, parts, a, q, k, weights)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if len(shared.touched) > len(shared.acc)/8 {
						sawClear = true
					} else {
						sawSparse = true
					}
					fresh, fst, _ := RankParts(nil, NewScratch(), parts, a, q, k, weights)
					if !slices.Equal(got, fresh) || st.CandidateDocs != fst.CandidateDocs {
						t.Fatalf("%s rank k=%d:\nreused %v, %d candidates\nfresh  %v, %d candidates", label, k, got, st.CandidateDocs, fresh, fst.CandidateDocs)
					}
					if weights == nil {
						if msg := checkRanking(got, want, k); msg != "" {
							t.Fatalf("%s rank k=%d: %s", label, k, msg)
						}
						if st.CandidateDocs != matching {
							t.Fatalf("%s rank: %d candidates, the oracle has %d matching", label, st.CandidateDocs, matching)
						}
					}

					nominated := rng.Perm(n)[:1+n/3]
					docsIn := make([]uint32, len(nominated))
					matched := 0
					for i, d := range nominated {
						docsIn[i] = uint32(d)
						if want[d] > 0 {
							matched++
						}
					}
					got, st, err = ScoreParts(shared, parts, a, q, docsIn, weights, 0)
					if err != nil {
						t.Fatalf("%s score: %v", label, err)
					}
					fresh, fst, _ = ScoreParts(NewScratch(), parts, a, q, docsIn, weights, 0)
					if !slices.Equal(got, fresh) || st.CandidateDocs != fst.CandidateDocs {
						t.Fatalf("%s score:\nreused %v, %d candidates\nfresh  %v, %d candidates", label, got, st.CandidateDocs, fresh, fst.CandidateDocs)
					}
					if weights == nil {
						for i, r := range got {
							if r.Doc != docsIn[i] || math.Abs(r.Score-want[r.Doc]) > 1e-9 {
								t.Fatalf("%s score: result %d is %+v, nominated %d with oracle score %.17g", label, i, r, docsIn[i], want[docsIn[i]])
							}
						}
						if st.CandidateDocs != matched {
							t.Fatalf("%s score: %d candidates, the oracle has %d matching", label, st.CandidateDocs, matched)
						}
					}
				}
			}
		}
	}
	if !sawClear || !sawSparse {
		t.Fatalf("reset paths exercised: clear %v, per-document %v; want both", sawClear, sawSparse)
	}
}

// TestInvalidWeightsRejected: a weight map holding a NaN, an infinity or a
// negative value fails RankParts and ScoreParts with
// ErrInvalidWeight, even for a term the query does not use; zero weights
// are valid and simply skip their lists.
func TestInvalidWeightsRejected(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	parts := []Part{{Index: e.Index()}}
	s := NewScratch()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -math.SmallestNonzeroFloat64} {
		for _, weights := range []map[string]float64{
			{"cat": bad, "fish": 1},
			{"cat": 1, "fish": 1, "whale": bad}, // not a query term
		} {
			if _, _, err := RankParts(nil, s, parts, e.Analyzer(), "cat fish", 3, weights); !errors.Is(err, ErrInvalidWeight) {
				t.Fatalf("RankParts weights %v: err = %v, want ErrInvalidWeight", weights, err)
			}
			if _, _, err := ScoreParts(s, parts, e.Analyzer(), "cat fish", []uint32{0, 2}, weights, 0); !errors.Is(err, ErrInvalidWeight) {
				t.Fatalf("ScoreParts weights %v: err = %v, want ErrInvalidWeight", weights, err)
			}
		}
	}
	got, _, err := RankParts(nil, s, parts, e.Analyzer(), "cat fish", 3, map[string]float64{"cat": 0, "fish": 1})
	if err != nil || len(got) == 0 {
		t.Fatalf("zero weight: %v, %v", got, err)
	}
	for _, r := range got {
		if r.Doc == 0 {
			t.Fatalf("doc 0 holds only the zero-weighted term but ranked: %v", got)
		}
	}
}

// TestRejectBelowIsExact: every x under rejectBelow's bound divides to a
// score strictly below the root, so the filter rejects only what the heap
// would; outside the normal range the bound is off.
func TestRejectBelowIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		wq := math.Exp(rng.Float64()*60 - 30)
		root := math.Exp(rng.Float64()*40 - 35)
		if i%4 == 0 {
			root = float64(rng.Intn(1000)+1) / 1000
		}
		cut := rejectBelow(root, wq)
		if cut == 0 {
			t.Fatalf("root %g wq %g: bound off in the normal range", root, wq)
		}
		for _, x := range []float64{math.Nextafter(cut, 0), cut * (1 - 1e-12), root * wq * (1 - 2e-9)} {
			if x < cut && x/wq >= root {
				t.Fatalf("root %g wq %g: x %g under bound %g divides to %g", root, wq, x, cut, x/wq)
			}
		}
	}
	for _, c := range []struct{ root, wq float64 }{
		{math.NaN(), 1}, {math.Inf(1), 1}, {0, 1}, {-1, 1}, {0x1p-1010, 1},
		{1, math.Inf(1)}, {1e300, 1e300}, {1e-300, 1e-300},
	} {
		if cut := rejectBelow(c.root, c.wq); cut != 0 {
			t.Fatalf("rejectBelow(%g, %g) = %g, want 0 (off)", c.root, c.wq, cut)
		}
	}
}
