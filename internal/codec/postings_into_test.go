package codec

import (
	"math/rand"
	"testing"

	"teraphim/internal/bitio"
)

// TestDecodePostingsIntoMatchesDecodePostings checks the preallocated block
// decoder against the appending one, both whole-list and resumed mid-stream
// the way the cursor's block fills do.
func TestDecodePostingsIntoMatchesDecodePostings(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		numDocs := uint32(rng.Intn(10_000) + 10)
		n := rng.Intn(int(numDocs))
		postings := randomPostings(rng, n, numDocs)
		w := bitio.NewWriter(1024)
		if err := EncodePostings(w, postings, numDocs); err != nil {
			t.Fatal(err)
		}
		want, err := DecodePostings(nil, bitio.NewReader(w.Bytes()), n, numDocs)
		if err != nil {
			t.Fatal(err)
		}

		g := NewGolombCode(GolombParameter(uint64(numDocs), uint64(n)))

		// Whole list in one call.
		dst := make([]Posting, n)
		last, err := g.DecodePostingsInto(dst, bitio.NewReader(w.Bytes()), -1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d posting %d: %+v, want %+v", trial, i, dst[i], want[i])
			}
		}
		if n > 0 && last != int64(want[n-1].Doc) {
			t.Fatalf("trial %d: final prev doc %d, want %d", trial, last, want[n-1].Doc)
		}

		// Resumed block decode: split at an arbitrary boundary, threading the
		// previous doc through exactly as TermCursor.fill does.
		if n < 2 {
			continue
		}
		cut := 1 + rng.Intn(n-1)
		r := bitio.NewReader(w.Bytes())
		head := make([]Posting, cut)
		prev, err := g.DecodePostingsInto(head, r, -1)
		if err != nil {
			t.Fatal(err)
		}
		tail := make([]Posting, n-cut)
		if _, err := g.DecodePostingsInto(tail, r, prev); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			var got Posting
			if i < cut {
				got = head[i]
			} else {
				got = tail[i-cut]
			}
			if got != want[i] {
				t.Fatalf("trial %d split %d posting %d: %+v, want %+v", trial, cut, i, got, want[i])
			}
		}
	}
}

// TestDecodePostingsIntoTruncated confirms a truncated stream surfaces an
// error rather than fabricating postings.
func TestDecodePostingsIntoTruncated(t *testing.T) {
	postings := []Posting{{Doc: 1, FDT: 2}, {Doc: 5, FDT: 1}, {Doc: 9, FDT: 3}}
	w := bitio.NewWriter(64)
	if err := EncodePostings(w, postings, 10); err != nil {
		t.Fatal(err)
	}
	data := w.Bytes()
	g := NewGolombCode(GolombParameter(10, 3))
	dst := make([]Posting, 4)
	if _, err := g.DecodePostingsInto(dst, bitio.NewReader(data), -1); err == nil {
		t.Fatal("decoding past the end of the list: want error")
	}
}
