package teraphim

// Integration tests driving the public API end to end, the way a
// downstream user would.

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func apiDocs() []Document {
	return []Document{
		{Title: "d0", Text: "Distributed information retrieval systems can be fast and effective."},
		{Title: "d1", Text: "A librarian maintains the index for its own subcollection."},
		{Title: "d2", Text: "The receptionist merges the rankings returned by each librarian."},
		{Title: "d3", Text: "Compression keeps both the index and the documents small."},
	}
}

func TestQuickstartFlow(t *testing.T) {
	lib, err := BuildLibrarian("demo", apiDocs())
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := lib.Engine().Rank("merging librarian rankings", 3, nil)
	results := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || results[0].Doc != 2 {
		t.Fatalf("quickstart ranking = %v, want doc 2 first", results)
	}
	doc, err := lib.Store().Fetch(results[0].Doc)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Title != "d2" {
		t.Fatalf("fetched %q", doc.Title)
	}
}

func TestDistributedFlowOverPublicAPI(t *testing.T) {
	analyzer := NewAnalyzer()
	var libs []*Librarian
	for _, part := range []struct {
		name string
		docs []Document
	}{
		{"A", apiDocs()[:2]},
		{"B", apiDocs()[2:]},
	} {
		lib, err := BuildLibrarianWith(part.name, part.docs, BuildOptions{Analyzer: analyzer})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	dialer := NewInProcessDialer(libs, LinkConfig{})
	recep, err := ConnectPool(dialer, []string{"A", "B"}, ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		recep.Close()
		dialer.Wait()
	}()
	if _, err := recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	res, err := recep.Query(ModeCV, "librarian rankings", 4, Options{Fetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers over public API")
	}
	if res.Answers[0].Text == "" {
		t.Fatal("fetch did not populate text")
	}
}

func TestSaveLoadCollection(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "col")
	lib, err := BuildLibrarian("persist", apiDocs())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCollection(dir, lib, true, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	ranking, err := lib.Engine().Rank("distributed retrieval", 4, nil)
	want := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	ranking, err = loaded.Engine().Rank("distributed retrieval", 4, nil)
	got := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("reloaded collection returns %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("result %d differs after reload: %+v vs %+v", i, got[i], want[i])
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "index.tpix")); err != nil {
		t.Fatal("index file missing")
	}
}

func TestTCPFlowOverPublicAPI(t *testing.T) {
	lib, err := BuildLibrarian("tcp", apiDocs())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeLibrarian(lib, ln)
	defer srv.Close()

	dialer := TCPDialer{"tcp": srv.Addr().String()}
	recep, err := ConnectPool(dialer, []string{"tcp"}, ReceptionistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer recep.Close()
	res, err := recep.Query(ModeCN, "compression index", 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers over TCP")
	}
}

func TestCorpusGeneration(t *testing.T) {
	small := DefaultCorpusConfig()
	small.Subs = small.Subs[:2]
	small.Subs[0].NumDocs = 50
	small.Subs[1].NumDocs = 40
	small.VocabSize = 2000
	small.NumTopics = 8
	small.NumLongQueries = 2
	small.NumShortQueries = 2
	corpus, err := GenerateCorpus(small)
	if err != nil {
		t.Fatal(err)
	}
	docs, keys := corpus.AllDocs()
	if len(docs) != 90 || len(keys) != 90 {
		t.Fatalf("corpus has %d docs", len(docs))
	}
}

func TestGroupedIndexOverPublicAPI(t *testing.T) {
	analyzer := NewAnalyzer(WithoutStopwords(), WithoutStemming())
	var docTerms [][]string
	for _, d := range apiDocs() {
		docTerms = append(docTerms, analyzer.Terms(nil, d.Text))
	}
	gi, err := BuildGroupedIndex(docTerms, 2, analyzer)
	if err != nil {
		t.Fatal(err)
	}
	// Four documents in groups of two: group 1 is the last and covers 2 and 3.
	if got := gi.Expand([]uint32{1}); !slices.Equal(got, []uint32{2, 3}) {
		t.Fatalf("Expand(1) = %v, want [2 3]", got)
	}
}

func TestMonoServerOverPublicAPI(t *testing.T) {
	analyzer := NewAnalyzer()
	st, err := BuildStore(apiDocs())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := BuildLibrarianWith("all", apiDocs(), BuildOptions{Analyzer: analyzer})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMonoServer(lib.Engine(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ms.Query("distributed retrieval", 3, Options{Fetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 || res.Answers[0].Text == "" {
		t.Fatalf("MS answers: %+v", res.Answers)
	}
}

func TestStreamingIngestOverPublicAPI(t *testing.T) {
	up, err := BuildLibrarian("LIVE", apiDocs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if err := up.ConfigureIngest(IngestConfig{MinSegmentDocs: 1, MergeFanIn: 2}); err != nil {
		t.Fatal(err)
	}

	dialer := NewInProcessDialer([]*Librarian{up}, LinkConfig{})
	pool, err := ConnectPool(dialer, []string{"LIVE"}, ReceptionistConfig{Cache: &CacheConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	up.OnUpdate(pool.InvalidateCache)

	ctx := context.Background()
	if _, err := pool.Query(ModeCN, "compression keeps the index small", 4, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := up.Ingest(ctx, apiDocs()[2:]); err != nil {
		t.Fatal(err)
	}
	if err := up.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := pool.Query(ModeCN, "compression keeps the index small", 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.CacheHit {
		t.Fatal("cached result survived an ingest epoch")
	}
	found := false
	for _, a := range res.Answers {
		if a.LocalDoc == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("streamed doc missing from answers: %+v", res.Answers)
	}

	st := up.SegmentStats()
	if st.TotalDocs != 4 || st.DocsIndexed != 2 {
		t.Fatalf("SegmentStats = %+v", st)
	}
	if err := up.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(up.SegmentStats().Segments); n != 1 {
		t.Fatalf("segments after compact = %d", n)
	}

	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if err := up.Ingest(ctx, apiDocs()[:1]); !errors.Is(err, ErrLibrarianClosed) {
		t.Fatalf("ingest after close = %v, want ErrLibrarianClosed", err)
	}
}
