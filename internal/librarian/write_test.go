package librarian

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"teraphim/internal/huffman"
	"teraphim/internal/index"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// hostileDocs draws n documents from words and separators that stress the
// write path's one scan: ASCII, multibyte letters, non-ASCII digits,
// combining marks (which separate words), invalid UTF-8, words over
// MaxTermLength bytes (some cut inside a multibyte sequence), capitalised
// stopwords, and İ / ẞ, whose lowercase has a different byte length — plus
// empty and separator-only documents.
func hostileDocs(rng *rand.Rand, n int) []store.Document {
	words := []string{
		"retrieval", "Retrieval", "RETRIEVAL", "distributed", "librarians", "queries", "ranking",
		"The", "THE", "And", "whereas", "Also", "x1ing", "TREC2",
		"café", "naïve", "Ελληνικά", "東京タワー", "Straße", "résumé",
		"٣٤٥", "१२३", "１２３x", "cafe\u0301s", "a\u0308b",
		strings.Repeat("x", 40), "a" + strings.Repeat("é", 20), strings.Repeat("İ", 16),
		"İstanbul", "ẞtraße", strings.Repeat("ẞ", 11), "Ijssel",
	}
	seps := []string{" ", " ", ", ", "\n", "\t-", " — ", "\xff", "\xc3", "\xe2\x82", "①", "\u0301", ""}
	docs := make([]store.Document, n)
	for i := range docs {
		var sb strings.Builder
		switch rng.Intn(8) {
		case 0: // empty
		case 1:
			for j := rng.Intn(4); j >= 0; j-- {
				sb.WriteString(seps[rng.Intn(len(seps))])
			}
		default:
			for j := rng.Intn(30); j >= 0; j-- {
				sb.WriteString(seps[rng.Intn(len(seps))])
				sb.WriteString(words[rng.Intn(len(words))])
			}
			if rng.Intn(2) == 0 {
				sb.WriteString(seps[rng.Intn(len(seps))])
			}
		}
		docs[i] = store.Document{Title: fmt.Sprintf("h-%d", i), Text: sb.String()}
	}
	return docs
}

// textModel trains a text model on docs.
func textModel(t testing.TB, docs []store.Document) *huffman.TextModel {
	t.Helper()
	m, err := store.TrainModel(docs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serialised returns src's WriteTo bytes.
func serialised(t testing.TB, src io.WriterTo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertStringPath holds sg, built from docs by the one scan, to the string
// path it replaced: Builder.Add over the query analyser's Terms, and
// store.BuildWith under model — the model's Marshal bytes, the index's
// WriteTo bytes, and the store's, which hold every blob.
func assertStringPath(t testing.TB, label string, sg *segment, docs []store.Document, analyzer *textproc.Analyzer, skip uint32, model *huffman.TextModel) {
	t.Helper()
	ib := index.NewBuilder(index.WithSkipInterval(skip))
	for _, d := range docs {
		ib.Add(analyzer.Terms(nil, d.Text))
	}
	ix, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.BuildWith(model, docs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sg.store.Model().Marshal(), model.Marshal()) {
		t.Fatalf("%s: model bytes differ from the string path's", label)
	}
	if !bytes.Equal(serialised(t, sg.Index), serialised(t, ix)) {
		t.Fatalf("%s: index bytes differ from the string path's", label)
	}
	if !bytes.Equal(serialised(t, sg.store), serialised(t, st)) {
		t.Fatalf("%s: store bytes differ from the string path's", label)
	}
}

// TestBuildSegmentMatchesStringPath holds the write path's one scan per
// document — each distinct raw word analysed by Analyzer.Term once, and each
// document coded from the symbols its lexicon gave — to the string path it
// replaced. The query analyser is the oracle because CV ≡ MS needs the write
// side and the query side to analyse alike. Each seeded round builds under a
// model trained on its documents, under one frozen on other text, so escapes
// are covered too, and as Build does, with a trainer that learns the model in
// the scan: that model must be store.TrainModel's, symbol for symbol and
// count for count. The last rounds are no documents and separators alone.
func TestBuildSegmentMatchesStringPath(t *testing.T) {
	analyzer := textproc.NewAnalyzer()
	for round := 0; round < 42; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		docs := hostileDocs(rng, 1+rng.Intn(60))
		switch round {
		case 40:
			docs = nil
		case 41:
			docs = []store.Document{{Text: " "}, {Text: ""}, {Text: ", \xff\n"}, {Text: "①\u0301 — "}, {Text: " "}}
		}
		skip := uint32(4 * rng.Intn(3))
		frozen := textModel(t, hostileDocs(rng, 5))
		for name, lex := range map[string]lexicon{"Build": huffman.NewTrainer(), "trained": textModel(t, docs), "frozen": frozen} {
			sg, err := buildSegment("H", docs, analyzer, skip, lex)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, name, err)
			}
			model, ok := lex.(*huffman.TextModel)
			if !ok {
				model = textModel(t, docs)
			}
			assertStringPath(t, fmt.Sprintf("round %d, %s", round, name), sg, docs, analyzer, skip, model)
		}
	}
}

// FuzzBuildMatchesTwoPass splits the input into documents at every NUL and
// holds Build's one scan to the two passes it replaced: store.TrainModel,
// then the string path under its model.
func FuzzBuildMatchesTwoPass(f *testing.F) {
	f.Add("Distributed retrieval, café\x00 the librarians — ranking\x00\x00\xff\xc3 x1ing İstanbul ①")
	f.Add("")
	f.Add(" , \n\x00\t-")
	analyzer := textproc.NewAnalyzer()
	f.Fuzz(func(t *testing.T, text string) {
		var docs []store.Document
		for _, part := range strings.Split(text, "\x00") {
			docs = append(docs, store.Document{Text: part})
		}
		sg, err := buildSegment("F", docs, analyzer, index.DefaultSkipInterval, huffman.NewTrainer())
		if err != nil {
			t.Fatal(err)
		}
		assertStringPath(t, fmt.Sprintf("%q", text), sg, docs, analyzer, index.DefaultSkipInterval, textModel(t, docs))
	})
}

// TestBuildSegmentConcurrent: buildSegment only reads its analyser and
// frozen model (librarians built with one BuildOptions.Analyzer share it
// across their builders), and each call's term table, symbol stream and
// builder are its own, so concurrent builds write what serial ones do. Run
// under -race.
func TestBuildSegmentConcurrent(t *testing.T) {
	analyzer := textproc.NewAnalyzer()
	rng := rand.New(rand.NewSource(99))
	model := textModel(t, hostileDocs(rng, 20))
	batches := make([][]store.Document, 4)
	for i := range batches {
		batches[i] = hostileDocs(rng, 40)
	}
	segs := make([]*segment, len(batches))
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			segs[i], errs[i] = buildSegment("H", batches[i], analyzer, 4, model)
		}(i)
	}
	wg.Wait()
	for i, batch := range batches {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial, err := buildSegment("H", batch, analyzer, 4, model)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serialised(t, segs[i].Index), serialised(t, serial.Index)) ||
			!bytes.Equal(serialised(t, segs[i].store), serialised(t, serial.store)) {
			t.Fatalf("batch %d: a concurrent build wrote other bytes than a serial one", i)
		}
	}
}

// TestBatchAllocatesPerDocument pins what inversion by counting is for: an
// ingested batch of 100 documents, coded under a frozen model, allocates at
// most 20 times a document. When each term's postings grew a list of their
// own, it allocated 61; the batch's blobs take one each, and its
// symbol stream, term ids, pair blocks and index arenas a few per batch.
func TestBatchAllocatesPerDocument(t *testing.T) {
	cfg := trecsynth.DefaultConfig()
	cfg.VocabSize = 20000
	cfg.Subs = []trecsynth.SubSpec{{Name: "AP", NumDocs: 2000 + 100}}
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	docs := corpus.Subcollections[0].Docs
	lib, err := Build("AP", docs[:2000], BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch := docs[2000:]
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := buildSegment(lib.name, batch, lib.analyzer, lib.skip, lib.model); err != nil {
			t.Fatal(err)
		}
	})
	perDoc := allocs / float64(len(batch))
	t.Logf("%.1f allocations per document", perDoc)
	if perDoc > 20 {
		t.Errorf("a %d-document batch allocates %.1f times per document, want at most 20", len(batch), perDoc)
	}
}

// BenchmarkBuildSegment prices the write path per document, both ways a
// librarian writes: build is a static Build of cv-long-inproc's AP
// subcollection (20,800 documents of that workload's vocabulary; one scan
// with a lexicon that learns, then each document inverted and coded from
// what the scan recorded, so B/doc includes the transient symbol stream and
// term ids), batch one 100-document ingested batch under the model that
// Build froze.
func BenchmarkBuildSegment(b *testing.B) {
	cfg := trecsynth.DefaultConfig()
	cfg.VocabSize = 20000
	cfg.Subs = []trecsynth.SubSpec{{Name: "AP", NumDocs: 20800 + 100}}
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	docs := corpus.Subcollections[0].Docs
	built, batch := docs[:20800], docs[20800:]
	lib, err := Build("AP", built, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("build", func(b *testing.B) {
		perDoc(b, len(built), func() error {
			_, err := Build("AP", built, BuildOptions{})
			return err
		})
	})
	b.Run("batch", func(b *testing.B) {
		perDoc(b, len(batch), func() error {
			_, err := buildSegment(lib.name, batch, lib.analyzer, lib.skip, lib.model)
			return err
		})
	})
}

// perDoc runs write b.N times and reports time, documents per second, and
// allocations and bytes allocated per document, each run writing docs
// documents.
func perDoc(b *testing.B, docs int, write func() error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, allocated := ms.Mallocs, ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := write(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	n := float64(b.N) * float64(docs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/doc")
	b.ReportMetric(n/b.Elapsed().Seconds(), "docs/s")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/n, "allocs/doc")
	b.ReportMetric(float64(ms.TotalAlloc-allocated)/n, "B/doc")
}
