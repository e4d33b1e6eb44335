package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// mergeParityCorpus is the librarian package's parity corpus (one fixed
// trecsynth subcollection of 300 documents) as analysed term lists.
func mergeParityCorpus(t testing.TB) [][]string {
	t.Helper()
	cfg := trecsynth.DefaultConfig()
	cfg.Subs = []trecsynth.SubSpec{{Name: "C", NumDocs: 300}}
	cfg.VocabSize, cfg.NumTopics, cfg.MeanDocLen = 3000, 12, 50
	cfg.NumShortQueries, cfg.NumLongQueries = 4, 2
	c, err := trecsynth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	analyzer := textproc.NewAnalyzer()
	docs := make([][]string, len(c.Subcollections[0].Docs))
	for i, d := range c.Subcollections[0].Docs {
		docs[i] = analyzer.Terms(nil, d.Text)
	}
	return docs
}

func buildOver(t testing.TB, docs [][]string, opts ...BuilderOption) *Index {
	t.Helper()
	b := NewBuilder(opts...)
	for _, d := range docs {
		b.Add(d)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// mergeCut indexes docs[cuts[i]:cuts[i+1]] piece by piece and merges the
// pieces back; cuts starts at 0 and ends at len(docs).
func mergeCut(t testing.TB, docs [][]string, cuts []int, opts ...BuilderOption) *Index {
	t.Helper()
	var subs []*Index
	var offsets []uint32
	for i := 0; i+1 < len(cuts); i++ {
		subs = append(subs, buildOver(t, docs[cuts[i]:cuts[i+1]], opts...))
		offsets = append(offsets, uint32(cuts[i]))
	}
	ix, err := Merge(subs, offsets, uint32(len(docs)), opts...)
	if err != nil {
		t.Fatalf("merge at cuts %v: %v", cuts, err)
	}
	return ix
}

func serialised(t testing.TB, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pinnedMergeSHA256 is the SHA-256 of WriteTo for the parity corpus merged
// from 2, 3 and 5 equal pieces, recorded at 8b69684 from the RawBuilder-based
// Merge that the streaming k-way merge replaced. The three are one value
// because a merge is exact: each equals the index built over the whole corpus.
const pinnedMergeSHA256 = "9b790ca63e9a48cf6cf9dad876ed71e84a3dab205147642a9370f3ddb8bc56d7"

func TestMergePinned(t *testing.T) {
	docs := mergeParityCorpus(t)
	for _, n := range []int{2, 3, 5} {
		cuts := make([]int, n+1)
		for i := range cuts {
			cuts[i] = i * len(docs) / n
		}
		sum := sha256.Sum256(serialised(t, mergeCut(t, docs, cuts)))
		if got := hex.EncodeToString(sum[:]); got != pinnedMergeSHA256 {
			t.Errorf("%d-way merge serialises to %s, pinned %s", n, got, pinnedMergeSHA256)
		}
	}
}

// TestMergeMatchesBuilder is the property behind the pins: however a corpus
// is cut — one piece or six, empty pieces, terms absent from some pieces,
// with or without skip structures — merging the pieces' indexes serialises
// to the bytes of one Builder over the concatenation.
func TestMergeMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for round := 0; round < 40; round++ {
		// A small vocabulary with a few rare terms, so that short pieces miss
		// many of them.
		docs := make([][]string, rng.Intn(120))
		for d := range docs {
			terms := make([]string, rng.Intn(12))
			for i := range terms {
				if rng.Intn(8) == 0 {
					terms[i] = "rare" + strconv.Itoa(rng.Intn(40))
				} else {
					terms[i] = "t" + strconv.Itoa(rng.Intn(25))
				}
			}
			docs[d] = terms
		}
		cuts := []int{0}
		for p, pieces := 1, 1+rng.Intn(6); p < pieces; p++ {
			at := cuts[len(cuts)-1]
			if rng.Intn(3) > 0 { // else an empty piece
				at += rng.Intn(len(docs) - at + 1)
			}
			cuts = append(cuts, at)
		}
		cuts = append(cuts, len(docs))
		for _, skip := range []uint32{0, 4} {
			opt := WithSkipInterval(skip)
			got, want := serialised(t, mergeCut(t, docs, cuts, opt)), serialised(t, buildOver(t, docs, opt))
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d, %d docs cut at %v, skip %d: merged index differs from the direct build",
					round, len(docs), cuts, skip)
			}
		}
	}
}

// TestMergeRejectsBadTiling: inputs must tile the document space in
// ascending order.
func TestMergeRejectsBadTiling(t *testing.T) {
	a := buildOver(t, [][]string{{"x"}, {"y"}})
	b := buildOver(t, [][]string{{"x"}})
	for name, offsets := range map[string][]uint32{
		"descending":  {1, 0},
		"overlapping": {0, 1},
		"gap":         {1, 2},
	} {
		if _, err := Merge([]*Index{a, b}, offsets, 3); err == nil {
			t.Errorf("%s offsets %v: want error", name, offsets)
		}
	}
	if _, err := Merge([]*Index{a, b}, []uint32{0, 2}, 3); err != nil {
		t.Fatalf("well-tiled merge: %v", err)
	}
}
