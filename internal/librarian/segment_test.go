package librarian

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"teraphim/internal/codec"
	"teraphim/internal/huffman"
	"teraphim/internal/protocol"
	"teraphim/internal/store"
	"teraphim/internal/trecsynth"
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
// whose blobs must decode under the model the librarian advertises.
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
			t.Fatalf("decompress fetched doc %d: %v", blob.Doc, err)
		}
		if text != string(af.Docs[i].Data) {
			t.Fatalf("compressed fetch of doc %d decodes wrong text", blob.Doc)
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

// fetchCounts snapshots the stores' read counters.
func fetchCounts(stores []*store.Store) []uint64 {
	out := make([]uint64, len(stores))
	for i, st := range stores {
		out[i] = st.Fetches()
	}
	return out
}

// assertConcatenation checks that got, in order, hold exactly the blobs of
// parts, in order — the same backing bytes, not a recompression — under
// lib's one model, and that producing got read no document of parts (their
// counters still equal before).
func assertConcatenation(t *testing.T, lib *Librarian, got, parts []*store.Store, before []uint64) {
	t.Helper()
	for i, n := range fetchCounts(parts) {
		if n != before[i] {
			t.Fatalf("input store %d was read %d times by the merge; want 0", i, n-before[i])
		}
	}
	blobs := func(stores []*store.Store) (out [][]byte) {
		for _, st := range stores {
			if st.Model() != lib.model {
				t.Fatalf("a store's model is not the librarian's")
			}
			for id := uint32(0); id < st.NumDocs(); id++ {
				blob, err := st.FetchCompressed(id)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, blob)
			}
		}
		return out
	}
	have, want := blobs(got), blobs(parts)
	if len(have) != len(want) {
		t.Fatalf("%d documents after the merge, %d before", len(have), len(want))
	}
	for id := range want {
		if !bytes.Equal(have[id], want[id]) || (len(want[id]) > 0 && &have[id][0] != &want[id][0]) {
			t.Fatalf("doc %d: the merged store does not share the input's blob", id)
		}
	}
}

// TestMergeIsConcatenation extends TestIngestDoesNotRereadStore to merges:
// a background merge, the merged view behind Store() and Compact each yield
// the input stores' blobs in order under the librarian's model, without one
// read of an input store.
func TestMergeIsConcatenation(t *testing.T) {
	docs := synthCorpus(44)

	bg := newIngestable(t, 4, IngestConfig{MinSegmentDocs: 4, MergeFanIn: 2})
	parts := []*store.Store{bg.Store()}
	bg.testBuild = func(batch []store.Document) (*segment, error) {
		sg, err := buildSegment(bg.name, batch, bg.analyzer, bg.skip, bg.model)
		if err == nil {
			parts = append(parts, sg.store) // one worker; read after Close
		}
		return sg, err
	}
	for i := 4; i < len(docs); i += 4 {
		ingestFlush(t, bg, docs[i:i+4])
	}
	if err := bg.Close(); err != nil {
		t.Fatal(err)
	}
	if bg.SegmentStats().Merges == 0 {
		t.Fatal("no background merge ran")
	}
	var live []*store.Store
	for _, sg := range bg.man.Load().segs {
		live = append(live, sg.store)
	}
	assertConcatenation(t, bg, live, parts, make([]uint64, len(parts)))

	lib := servedAs(t, docs, 4)
	parts = nil
	for _, sg := range lib.man.Load().segs {
		parts = append(parts, sg.store)
	}
	before := fetchCounts(parts)
	assertConcatenation(t, lib, []*store.Store{lib.Store()}, parts, before)
	before = fetchCounts(parts)
	if err := lib.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertConcatenation(t, lib, []*store.Store{lib.man.Load().segs[0].store}, parts, before)
}

// BenchmarkMergeSegments prices one tier-0 merge as ingest-mixed runs them:
// four 400-document segments of benchmark-shaped text into one.
func BenchmarkMergeSegments(b *testing.B) {
	cfg := trecsynth.DefaultConfig()
	cfg.Subs = []trecsynth.SubSpec{{Name: "M", NumDocs: 1600}}
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lib := servedAs(b, corpus.Subcollections[0].Docs, 4)
	segs := lib.man.Load().segs
	perDoc(b, int(lib.man.Load().total), func() error {
		_, err := lib.newManifest(segs).merged()
		return err
	})
}

// termGroups is one decoded list of an IndexReply.
type termGroups struct {
	term   string
	groups []codec.Posting
}

// indexLists asks lib for part of parts of its grouped index (parts 0: the
// whole reply) and decodes it, checking its groups are the whole collection's.
func indexLists(t *testing.T, lib *Librarian, part, parts uint32) ([]termGroups, int) {
	t.Helper()
	const g, base = 10, 1237
	reply, ok := callServer(t, lib, &protocol.IndexRequest{G: g, Base: base, Part: part, Parts: parts}).(*protocol.IndexReply)
	if !ok {
		t.Fatalf("part %d of %d: not an IndexReply", part, parts)
	}
	docs := callServer(t, lib, &protocol.Hello{}).(*protocol.HelloReply).NumDocs
	if lo, hi := protocol.GroupRange(base, docs, g); reply.Lo != lo || reply.Hi != hi {
		t.Fatalf("part %d of %d: groups [%d, %d), want [%d, %d)", part, parts, reply.Lo, reply.Hi, lo, hi)
	}
	var out []termGroups
	r := protocol.NewListReader(reply)
	for {
		term, err := r.NextTerm()
		if err != nil {
			t.Fatal(err)
		}
		if term == "" {
			return out, len(reply.Lists)
		}
		groups, err := r.AppendGroups(nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, termGroups{term, groups})
	}
}

// TestShipIndexParts: the eight parts of a grouped-index reply, in part
// order, are the whole reply's lists — at 1, 2 and 5 segments, and on a
// librarian with fewer terms than parts, whose surplus parts are empty — and
// their lists cost within 1 % of the whole reply's bytes. A part outside the
// parts is refused.
func TestShipIndexParts(t *testing.T) {
	docs, _ := parityCorpus(t)
	tiny := []store.Document{{Title: "t", Text: "whale reef whale"}, {Title: "u", Text: "storm"}}
	for _, tc := range []struct {
		name string
		lib  *Librarian
	}{
		{"1 segment", servedAs(t, docs, 1)},
		{"2 segments", servedAs(t, docs, 2)},
		{"5 segments", servedAs(t, docs, 5)},
		{"3 terms", servedAs(t, tiny, 2)},
	} {
		want, wantBytes := indexLists(t, tc.lib, 0, 0)
		var got []termGroups
		gotBytes, empty := 0, 0
		for part := uint32(0); part < 8; part++ {
			lists, n := indexLists(t, tc.lib, part, 8)
			got, gotBytes = append(got, lists...), gotBytes+n
			if len(lists) == 0 {
				empty++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the parts hold %d lists, not the whole reply's %d", tc.name, len(got), len(want))
		}
		if len(want) >= 8 && (empty > 0 || float64(gotBytes) > 1.01*float64(wantBytes)) {
			t.Errorf("%s: %d empty parts, %d list bytes against the whole reply's %d", tc.name, empty, gotBytes, wantBytes)
		}
		if len(want) < 8 && empty != 8-len(want) {
			t.Errorf("%s: %d empty parts for %d terms", tc.name, empty, len(want))
		}
	}
	if _, ok := callServer(t, servedAs(t, docs, 1), &protocol.IndexRequest{G: 10, Part: 8, Parts: 8}).(*protocol.ErrorReply); !ok {
		t.Fatal("part 8 of 8: want an ErrorReply")
	}
}
