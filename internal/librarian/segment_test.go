package librarian

import (
	"context"
	"fmt"
	"math"
	"testing"

	"teraphim/internal/huffman"
	"teraphim/internal/protocol"
	"teraphim/internal/store"
)

// synthCorpus builds a deterministic synthetic corpus: a fixed vocabulary
// combined by a small LCG so different runs (and different builds of the
// same slice) see identical text.
func synthCorpus(n int) []store.Document {
	vocab := []string{
		"whale", "reef", "harbor", "storm", "lantern", "compass", "tide",
		"anchor", "gull", "mast", "salt", "chart", "drift", "squall", "keel",
	}
	docs := make([]store.Document, n)
	state := uint64(42)
	next := func(mod int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(mod))
	}
	for i := range docs {
		words := make([]byte, 0, 128)
		for w := 0; w < 8+next(10); w++ {
			words = append(words, vocab[next(len(vocab))]...)
			words = append(words, ' ')
		}
		docs[i] = store.Document{Title: fmt.Sprintf("doc-%03d", i), Text: string(words)}
	}
	return docs
}

// callServer performs one request/response over an in-process pipe session.
func callServer(t *testing.T, lib *Librarian, msg protocol.Message) protocol.Message {
	t.Helper()
	reply, _ := exchange(t, lib, msg)
	return reply
}

// buildSegmentedPair returns the same corpus twice: built as one segment,
// and served as three (background merging off).
func buildSegmentedPair(t *testing.T, n int) (uni, seg *Librarian) {
	t.Helper()
	corpus := synthCorpus(n)
	return servedAs(t, corpus, 1), servedAs(t, corpus, 3)
}

func rankOf(t *testing.T, reply protocol.Message) *protocol.RankReply {
	t.Helper()
	rr, ok := reply.(*protocol.RankReply)
	if !ok {
		t.Fatalf("got %T (%+v), want RankReply", reply, reply)
	}
	return rr
}

// assertRankParity compares two rank replies: doc ids exact, scores to 1e-9.
func assertRankParity(t *testing.T, label string, a, b *protocol.RankReply) {
	t.Helper()
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d vs %d results", label, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].Doc != b.Results[i].Doc {
			t.Fatalf("%s: result %d doc %d vs %d", label, i, a.Results[i].Doc, b.Results[i].Doc)
		}
		if math.Abs(a.Results[i].Score-b.Results[i].Score) > 1e-9 {
			t.Fatalf("%s: result %d score %g vs %g", label, i, a.Results[i].Score, b.Results[i].Score)
		}
	}
}

// TestSegmentedParityAfterCompact folds the segments down and re-checks the
// whole surface still matches the rebuild — including compressed fetch,
// which now transcodes through the manifest's transfer model because the
// compacted store retrained its own.
func TestSegmentedParityAfterCompact(t *testing.T) {
	uni, seg := buildSegmentedPair(t, 60)
	if err := seg.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := seg.SegmentStats()
	if len(st.Segments) != 1 || st.TotalDocs != 60 || st.Merges != 1 {
		t.Fatalf("after compact: %+v", st)
	}

	a := rankOf(t, callServer(t, uni, &protocol.RankQuery{Query: "whale reef tide", K: 20}))
	b := rankOf(t, callServer(t, seg, &protocol.RankQuery{Query: "whale reef tide", K: 20}))
	assertRankParity(t, "post-compact CN", a, b)

	af := callServer(t, uni, &protocol.FetchDocs{Docs: []uint32{0, 30, 59}}).(*protocol.FetchReply)
	mr := callServer(t, seg, &protocol.ModelRequest{}).(*protocol.ModelReply)
	model, err := huffman.UnmarshalTextModel(mr.Model)
	if err != nil {
		t.Fatal(err)
	}
	cf := callServer(t, seg, &protocol.FetchDocs{Docs: []uint32{0, 30, 59}, Compressed: true}).(*protocol.FetchReply)
	for i, blob := range cf.Docs {
		text, err := model.DecompressDoc(blob.Data)
		if err != nil {
			t.Fatalf("decompress transcoded doc %d: %v", blob.Doc, err)
		}
		if text != string(af.Docs[i].Data) {
			t.Fatalf("transcoded fetch of doc %d decodes wrong text", blob.Doc)
		}
	}

	// Compacting a single segment is a no-op, not an error.
	if err := seg.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := seg.SegmentStats().Merges; got != 1 {
		t.Fatalf("idle compact merged again: %d merges", got)
	}
}
