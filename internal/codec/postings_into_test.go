package codec

import (
	"math/rand"
	"reflect"
	"testing"

	"teraphim/internal/bitio"
)

// TestDecodePostingsIntoMatchesDecodePostings checks the block decoder
// against the bit-at-a-time reference, refDecodePostings, both whole-list
// and resumed mid-stream the way the cursor's block fills do.
func TestDecodePostingsIntoMatchesDecodePostings(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		numDocs := uint32(rng.Intn(10_000) + 10)
		n := rng.Intn(int(numDocs))
		postings := randomPostings(rng, n, numDocs)
		w := bitio.NewWriter(1024)
		if err := AppendList(w, postings, numDocs, 0, nil); err != nil {
			t.Fatal(err)
		}
		g := NewGolombCode(GolombParameter(uint64(numDocs), uint64(n)))
		want := make([]Posting, n)
		if _, err := refDecodePostings(want, &refBits{data: w.Bytes()}, g.b, -1); err != nil {
			t.Fatal(err)
		}

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
	if err := AppendList(w, postings, 10, 0, nil); err != nil {
		t.Fatal(err)
	}
	data := w.Bytes()
	g := NewGolombCode(GolombParameter(10, 3))
	dst := make([]Posting, 4)
	if _, err := g.DecodePostingsInto(dst, bitio.NewReader(data), -1); err == nil {
		t.Fatal("decoding past the end of the list: want error")
	}
}

// TestDecodeListChecks: DecodeList gives back what AppendList coded, with
// the bits it took and the sync points it recorded, and refuses a sync point
// one off in either field, a document past the collection and a frequency
// wider than 32 bits.
func TestDecodeListChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const numDocs, ivl = 5000, 8
	postings := randomPostings(rng, 100, numDocs)
	skips := make([]uint32, 2*((len(postings)-1)/ivl))
	w := bitio.NewWriter(256)
	if err := AppendList(w, postings, numDocs, ivl, skips); err != nil {
		t.Fatal(err)
	}
	data := w.Bytes()
	got := make([]Posting, len(postings))
	used, err := DecodeList(got, data, numDocs, ivl, skips)
	if err != nil || used != w.BitLen() || !reflect.DeepEqual(got, postings) {
		t.Fatalf("decoded %d bits of %d (%v), postings equal: %v", used, w.BitLen(), err, reflect.DeepEqual(got, postings))
	}
	for i := range skips {
		bad := append([]uint32(nil), skips...)
		bad[i]++
		if _, err := DecodeList(got, data, numDocs, ivl, bad); err == nil {
			t.Fatalf("skip value %d one off: accepted", i)
		}
	}
	// Documents 0 and N, and group 2 of 10 at frequency 2³²+5: the gamma
	// code's 32 data bits do not fit a window, and its low 32 bits read 5.
	for _, bad := range []struct {
		n          uint32
		gaps, fdts []uint64
	}{
		{numDocs, []uint64{1, numDocs}, []uint64{1, 1}},
		{10, []uint64{3}, []uint64{1<<32 + 5}},
	} {
		w := bitio.NewWriter(16)
		for i, gap := range bad.gaps {
			if PutGolomb(w, gap, GolombParameter(uint64(bad.n), uint64(len(bad.gaps)))) != nil || PutGamma(w, bad.fdts[i]) != nil {
				t.Fatal("coding the list")
			}
		}
		if _, err := DecodeList(got[:len(bad.gaps)], w.Bytes(), bad.n, 0, nil); err == nil {
			t.Fatalf("gaps %v, frequencies %v in %d: decoded as %+v", bad.gaps, bad.fdts, bad.n, got[:len(bad.gaps)])
		}
	}
}
