package index

import (
	"math/rand"
	"strconv"
	"testing"
)

// buildRandom builds an index whose common terms span many skip blocks.
func buildRandom(t *testing.T, numDocs int) *Index {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	b := NewBuilder()
	for d := 0; d < numDocs; d++ {
		var terms []string
		terms = append(terms, "common") // full-length list: one posting per doc
		for i := 0; i < 8; i++ {
			terms = append(terms, "t"+strconv.Itoa(rng.Intn(50)))
		}
		for i := 0; i < rng.Intn(3); i++ {
			terms = append(terms, "rare"+strconv.Itoa(rng.Intn(500)))
		}
		b.Add(terms)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestResetCursorMatchesFreshCursor walks every list twice — once with fresh
// cursors, once with a single reused cursor — and requires identical
// postings and identical consumption accounting.
func TestResetCursorMatchesFreshCursor(t *testing.T) {
	ix := buildRandom(t, 700)
	var reused TermCursor
	ix.Terms(func(term string, ft uint32) bool {
		fresh, err := ix.Cursor(term)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.ResetCursor(&reused, term); err != nil {
			t.Fatal(err)
		}
		got, err := reused.Decode(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(got) != int(ft) {
			t.Fatalf("term %q: reused cursor decoded %d postings, fresh %d, ft %d",
				term, len(got), len(want), ft)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("term %q posting %d: reused %+v, fresh %+v", term, i, got[i], want[i])
			}
		}
		if reused.DecodedPostings != fresh.DecodedPostings {
			t.Fatalf("term %q: reused consumed %d, fresh %d",
				term, reused.DecodedPostings, fresh.DecodedPostings)
		}
		return true
	})
}

// TestNextBlockMatchesNext checks the bulk decode path posting for posting
// against the scalar one, including the consumption counter.
func TestNextBlockMatchesNext(t *testing.T) {
	ix := buildRandom(t, 700)
	for _, term := range []string{"common", "t0", "t31"} {
		scalar, err := ix.Cursor(term)
		if err != nil {
			t.Fatalf("term %q: %v", term, err)
		}
		var want []Posting
		for scalar.Next() {
			want = append(want, scalar.Posting())
		}
		bulk, err := ix.Cursor(term)
		if err != nil {
			t.Fatal(err)
		}
		var got []Posting
		for {
			blk := bulk.NextBlock()
			if blk == nil {
				break
			}
			got = append(got, blk...)
		}
		if len(got) != len(want) {
			t.Fatalf("term %q: bulk %d postings, scalar %d", term, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("term %q posting %d: bulk %+v, scalar %+v", term, i, got[i], want[i])
			}
		}
		if bulk.DecodedPostings != scalar.DecodedPostings {
			t.Fatalf("term %q: bulk consumed %d, scalar %d", term, bulk.DecodedPostings, scalar.DecodedPostings)
		}
		if bulk.Posting() != want[len(want)-1] {
			t.Fatalf("term %q: Posting after last block = %+v, want %+v",
				term, bulk.Posting(), want[len(want)-1])
		}
	}
}

// TestAdvanceAcrossBlocks exercises both Advance regimes of the buffered
// cursor — the bitstream seek into an undecoded block and the within-block
// scan — and verifies postings bypassed by skips stay uncounted.
func TestAdvanceAcrossBlocks(t *testing.T) {
	ix := buildRandom(t, 700)
	cur, err := ix.Cursor("common") // one posting per doc: Doc == position
	if err != nil {
		t.Fatal(err)
	}
	// Mixed stride: some targets sit inside the current decode block
	// (fast-forward), others blocks away (seek).
	targets := []uint32{3, 5, 70, 71, 75, 300, 301, 699}
	for _, d := range targets {
		if !cur.Advance(d) {
			t.Fatalf("Advance(%d) = false", d)
		}
		if got := cur.Posting().Doc; got != d {
			t.Fatalf("Advance(%d) landed on doc %d", d, got)
		}
	}
	if cur.Advance(700) {
		t.Fatal("Advance past the last doc must return false")
	}
	if cur.DecodedPostings >= 700 {
		t.Fatalf("skip-based advance consumed %d postings, want far fewer than 700", cur.DecodedPostings)
	}
}

// TestListBytesExact pins the exact per-list accounting: list sizes are
// positive for every indexed term and sum to SizeBytes.
func TestListBytesExact(t *testing.T) {
	ix := buildRandom(t, 300)
	var sum uint64
	var cur TermCursor
	ix.Terms(func(term string, ft uint32) bool {
		if err := ix.ResetCursor(&cur, term); err != nil {
			t.Fatal(err)
		}
		lb := cur.ListBytes()
		if lb == 0 {
			t.Fatalf("term %q: ListBytes = 0", term)
		}
		sum += lb
		return true
	})
	if sum != ix.SizeBytes() {
		t.Fatalf("sum of ListBytes = %d, SizeBytes = %d", sum, ix.SizeBytes())
	}
}

// TestInvDocWeights checks the reciprocal table against DocWeight, including
// the zero-weight convention.
func TestInvDocWeights(t *testing.T) {
	b := NewBuilder()
	b.Add([]string{"cat", "dog"})
	b.Add(nil) // empty document: W_d = 0
	b.Add([]string{"cat"})
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	inv := ix.InvDocWeights()
	if len(inv) != 3 {
		t.Fatalf("table length %d", len(inv))
	}
	for d := uint32(0); d < 3; d++ {
		wd, err := ix.DocWeight(d)
		if err != nil {
			t.Fatal(err)
		}
		if wd == 0 {
			if inv[d] != 0 {
				t.Fatalf("doc %d: W_d = 0 but 1/W_d = %g", d, inv[d])
			}
			continue
		}
		if inv[d] != 1/wd {
			t.Fatalf("doc %d: inv %g, want %g", d, inv[d], 1/wd)
		}
	}
	// Quantized copies must rebuild the cache from their own weights.
	q, err := ix.QuantizeWeights()
	if err != nil {
		t.Fatal(err)
	}
	qinv := q.InvDocWeights()
	qwd, _ := q.DocWeight(0)
	if qwd == 0 || qinv[0] != 1/qwd {
		t.Fatalf("quantized doc 0: inv %g, want %g", qinv[0], 1/qwd)
	}
}
