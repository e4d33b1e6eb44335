package core

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"teraphim/internal/index"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// The digests below were recorded at commit 15a00e9, before the bit reader,
// bit writer, postings decoder and CI regroup were rewritten. They pin the MG
// format: any change to the bytes of a postings list, a skip offset, a
// document weight or the dictionary layout changes them.
const (
	pinnedIndexSHA256   = "2499dd46658de978c29d068276d54828bc599970a5b5d410b1e5928924f718f8"
	pinnedGroupedSHA256 = "9be90e0445f60261e08937832c6df4ab95cfe2e8047e2498514828187693f1a8"
)

func sha256Of(t *testing.T, src io.WriterTo) string {
	t.Helper()
	h := sha256.New()
	if _, err := src.WriteTo(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFormatPinned builds the index of a fixed trecsynth corpus — once over
// the whole collection, once per subcollection regrouped into a central index
// — and compares the serialised bytes against the recorded digests.
func TestFormatPinned(t *testing.T) {
	cfg := trecsynth.DefaultConfig()
	cfg.VocabSize = 3000
	cfg.MeanDocLen = 80
	cfg.Subs = []trecsynth.SubSpec{
		{Name: "AP", NumDocs: 433}, {Name: "FR", NumDocs: 287}, {Name: "WSJ", NumDocs: 391},
	}
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyzer := textproc.NewAnalyzer()
	whole := index.NewBuilder()
	var subs []*index.Index
	var offsets []uint32
	var docTerms [][]string
	for _, sub := range corpus.Subcollections {
		offsets = append(offsets, uint32(len(docTerms)))
		b := index.NewBuilder()
		for _, d := range sub.Docs {
			terms := analyzer.Terms(nil, d.Text)
			b.Add(terms)
			whole.Add(terms)
			docTerms = append(docTerms, terms)
		}
		ix, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, ix)
	}
	ix, err := whole.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Of(t, ix); got != pinnedIndexSHA256 {
		t.Errorf("Index.WriteTo digest %s, pinned %s", got, pinnedIndexSHA256)
	}

	// 433 and 433+287 are not multiples of 10, so groups straddle both
	// subcollection boundaries.
	merged, err := BuildGroupedFromIndexes(subs, offsets, uint32(len(docTerms)), 10, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Of(t, merged); got != pinnedGroupedSHA256 {
		t.Errorf("GroupedIndex.WriteTo digest of the merged sub-indexes %s, pinned %s", got, pinnedGroupedSHA256)
	}
	direct, err := BuildGrouped(docTerms, 10, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Of(t, direct); got != pinnedGroupedSHA256 {
		t.Errorf("GroupedIndex.WriteTo digest of the grouped documents %s, pinned %s", got, pinnedGroupedSHA256)
	}
}
