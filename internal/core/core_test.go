package core

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/index"
	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// testAnalyzer is shared by librarians, receptionist and MS baseline.
func testAnalyzer() *textproc.Analyzer {
	return textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
}

// fixture bundles a small distributed deployment plus its MS equivalent.
type fixture struct {
	recep   *Pool
	reg     *obs.Registry // the pool's metrics
	mono    *MonoServer
	dialer  *librarian.InProcessDialer
	corpus  map[string][]store.Document
	order   []string
	termsOf [][]string // analysed terms in global order, for grouped index
}

func newFixture(t testing.TB, corpus map[string][]store.Document, order []string) *fixture {
	t.Helper()
	a := testAnalyzer()
	var libs []*librarian.Librarian
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
	reg := obs.NewRegistry()
	recep, err := NewPool(dialer, order, Config{Analyzer: a, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		recep.Close()
		dialer.Wait()
	})
	mono, termsOf := newMono(t, corpus, order)
	return &fixture{recep: recep, reg: reg, mono: mono, dialer: dialer, corpus: corpus, order: order, termsOf: termsOf}
}

// newMono builds the MS baseline over the librarians' documents concatenated
// in order, and returns it with every document's analysed terms in that
// global order.
func newMono(t testing.TB, corpus map[string][]store.Document, order []string) (*MonoServer, [][]string) {
	t.Helper()
	a := testAnalyzer()
	var allDocs []store.Document
	var keys []string
	var termsOf [][]string
	b := index.NewBuilder()
	for _, name := range order {
		for i, d := range corpus[name] {
			allDocs = append(allDocs, d)
			keys = append(keys, name+":"+strconv.Itoa(i))
			termsOf = append(termsOf, a.Terms(nil, d.Text))
			b.Add(termsOf[len(termsOf)-1])
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Build(allDocs)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := NewMonoServer(search.NewEngine(ix, a), st, keys)
	if err != nil {
		t.Fatal(err)
	}
	return mono, termsOf
}

// smallCorpus builds a deterministic corpus with topical skew across three
// librarians.
func smallCorpus(t testing.TB) (map[string][]store.Document, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = "w" + strconv.Itoa(i)
	}
	topicTerms := map[string][]string{
		"AP":  {"alpha", "avalanche", "aurora"},
		"FR":  {"federal", "finance", "fiscal"},
		"WSJ": {"wallstreet", "widget", "wholesale"},
	}
	corpus := map[string][]store.Document{}
	order := []string{"AP", "FR", "WSJ"}
	for _, name := range order {
		n := 40 + rng.Intn(20)
		for d := 0; d < n; d++ {
			var sb strings.Builder
			topical := rng.Intn(4) == 0
			for i := 0; i < 30+rng.Intn(40); i++ {
				if topical && rng.Intn(3) == 0 {
					sb.WriteString(topicTerms[name][rng.Intn(3)])
				} else {
					sb.WriteString(vocab[rng.Intn(len(vocab))])
				}
				sb.WriteString(" ")
			}
			corpus[name] = append(corpus[name], store.Document{
				ID:    uint32(d),
				Title: name + "-" + strconv.Itoa(d),
				Text:  strings.TrimSpace(sb.String()),
			})
		}
	}
	return corpus, order
}

func TestConnectAndGlobalNumbering(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	r := f.recep.Federation()

	if got := r.Librarians(); len(got) != 3 || got[0] != "AP" {
		t.Fatalf("Librarians = %v", got)
	}
	var want uint32
	for _, name := range order {
		want += uint32(len(corpus[name]))
	}
	if r.TotalDocs() != want {
		t.Fatalf("TotalDocs = %d, want %d", r.TotalDocs(), want)
	}
	// Round-trip every (librarian, local) through global numbering.
	var g uint32
	for _, name := range order {
		for i := range corpus[name] {
			name2, local2, err := r.ResolveGlobal(g)
			if err != nil {
				t.Fatal(err)
			}
			if name2 != name || local2 != uint32(i) {
				t.Fatalf("global %d resolved to %s:%d, want %s:%d", g, name2, local2, name, i)
			}
			g++
		}
	}
	if _, _, err := r.ResolveGlobal(want); err == nil {
		t.Fatal("out-of-range global doc: want error")
	}
}

func TestCNReturnsAnswersWithLocalStats(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	res, err := f.recep.Query(ModeCN, "alpha federal", 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("CN returned nothing")
	}
	if res.Trace.LibrariansAsked != 3 {
		t.Fatalf("CN must ask every librarian, asked %d", res.Trace.LibrariansAsked)
	}
	if res.Trace.RoundTrips(PhaseRank) != 3 {
		t.Fatalf("CN rank round trips = %d", res.Trace.RoundTrips(PhaseRank))
	}
	// Answers sorted by decreasing score.
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].Score > res.Answers[i-1].Score {
			t.Fatal("CN answers not sorted")
		}
	}
}

func TestCVSkipsIrrelevantLibrarians(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	// "alpha" etc. appear only in AP documents.
	res, err := f.recep.Query(ModeCV, "alpha avalanche aurora", 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.LibrariansAsked != 1 {
		t.Fatalf("CV asked %d librarians, want 1", res.Trace.LibrariansAsked)
	}
	for _, a := range res.Answers {
		if a.Librarian != "AP" {
			t.Fatalf("answer from %s for AP-only terms", a.Librarian)
		}
	}
	// A query with no indexed terms contacts nobody.
	res, err = f.recep.Query(ModeCV, "qqqqq zzzzz", 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.LibrariansAsked != 0 || len(res.Answers) != 0 {
		t.Fatalf("unknown-term CV: asked %d, answers %d", res.Trace.LibrariansAsked, len(res.Answers))
	}
}

func TestCVRequiresSetup(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.Query(ModeCV, "alpha", 5, Options{}); err == nil {
		t.Fatal("CV without SetupVocabulary: want error")
	}
}

func TestCISmallKPrimeLimitsCandidates(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGrouped(f.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.recep.Federation().SetupCentralIndex(g); err != nil {
		t.Fatal(err)
	}
	res, err := f.recep.Query(ModeCI, "alpha federal", 10, Options{KPrime: 2})
	if err != nil {
		t.Fatal(err)
	}
	// k'=2, G=10: at most 20 candidates merged.
	if res.Trace.MergeCandidates > 20 {
		t.Fatalf("CI merged %d candidates, want <= 20", res.Trace.MergeCandidates)
	}
	if res.Trace.CentralStats.PostingsDecoded == 0 {
		t.Fatal("CI central stats empty")
	}
	// However many groups are expanded, each librarian returns only its
	// top k (ScoreDocs.K), so at most asked x k scores reach the merge.
	res, err = f.recep.Query(ModeCI, "alpha federal wallstreet", 3, Options{KPrime: int(g.ix.NumDocs())})
	if err != nil {
		t.Fatal(err)
	}
	if tr := res.Trace; tr.LibrariansAsked != len(order) || tr.MergeCandidates != 3*tr.LibrariansAsked {
		t.Fatalf("CI over every group: merged %d candidates from %d librarians asked for their top 3",
			tr.MergeCandidates, tr.LibrariansAsked)
	}
}

func TestCIRequiresSetup(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.recep.Query(ModeCI, "alpha", 5, Options{}); err == nil {
		t.Fatal("CI without SetupCentralIndex: want error")
	}
	if err := f.recep.Federation().SetupCentralIndex(nil); err == nil {
		t.Fatal("nil grouped index: want error")
	}
	// Mismatched doc count.
	g, err := BuildGrouped(f.termsOf[:10], 5, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.recep.Federation().SetupCentralIndex(g); err == nil {
		t.Fatal("mismatched grouped index: want error")
	}
}

func TestFetchPlain(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	res, err := f.recep.Query(ModeCN, "alpha federal wallstreet", 5, Options{Fetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers")
	}
	for _, a := range res.Answers {
		want := corpus[a.Librarian][a.LocalDoc]
		if a.Text != want.Text || a.Title != want.Title {
			t.Fatalf("fetched %s: title %q text mismatch", a.Key(), a.Title)
		}
	}
	// The documents rode the rank replies: no fetch round, every answer
	// accounted as piggy-backed.
	tr := &res.Trace
	if tr.RoundTrips(PhaseFetch) != 0 || tr.FallbackFetches != 0 || tr.PiggybackedDocs != len(res.Answers) {
		t.Fatalf("%d answers: %d fetch round trips, %d fallback fetches, %d piggy-backed docs",
			len(res.Answers), tr.RoundTrips(PhaseFetch), tr.FallbackFetches, tr.PiggybackedDocs)
	}
}

func TestFetchCompressed(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupModels(); err != nil {
		t.Fatal(err)
	}
	res, err := f.recep.Query(ModeCN, "alpha federal wallstreet", 5,
		Options{Fetch: true, CompressedTransfer: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		want := corpus[a.Librarian][a.LocalDoc]
		if a.Text != want.Text {
			t.Fatalf("compressed fetch %s: text mismatch", a.Key())
		}
	}
	// Compressed transfer must move fewer document bytes than plain.
	plain, err := f.recep.Query(ModeCN, "alpha federal wallstreet", 5, Options{Fetch: true})
	if err != nil {
		t.Fatal(err)
	}
	var cBytes, pBytes int
	for _, c := range res.Trace.Calls {
		cBytes += c.DocBytes
	}
	for _, c := range plain.Trace.Calls {
		pBytes += c.DocBytes
	}
	if cBytes == 0 || cBytes >= pBytes {
		t.Fatalf("compressed transfer %d bytes >= plain %d", cBytes, pBytes)
	}
}

func TestFetchCompressedWithoutModels(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	_, err := f.recep.Query(ModeCN, "alpha", 5, Options{Fetch: true, CompressedTransfer: true})
	if err == nil {
		t.Fatal("compressed transfer without SetupModels: want error")
	}
}

func TestQueryValidation(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.Query(ModeCN, "alpha", 0, Options{}); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := f.recep.Query(ModeMS, "alpha", 5, Options{}); err == nil {
		t.Fatal("MS via receptionist: want error")
	}
}

func TestTraceAccounting(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	res, err := f.recep.Query(ModeCN, "alpha federal", 5, Options{Fetch: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.Mode != ModeCN {
		t.Fatalf("trace mode = %v", tr.Mode)
	}
	if tr.BytesTransferred(0) <= 0 {
		t.Fatal("no bytes recorded")
	}
	if tr.BytesTransferred(PhaseRank)+tr.BytesTransferred(PhaseFetch) != tr.BytesTransferred(0) {
		t.Fatal("phase byte totals do not sum")
	}
	work := tr.LibrarianWork()
	if work.PostingsDecoded == 0 {
		t.Fatal("no librarian work recorded")
	}
	// Calls are sorted by phase then librarian.
	for i := 1; i < len(tr.Calls); i++ {
		a, b := tr.Calls[i-1], tr.Calls[i]
		if a.Phase > b.Phase || (a.Phase == b.Phase && a.Librarian > b.Librarian) {
			t.Fatal("trace calls not ordered")
		}
	}
}

func TestVocabularySize(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	terms, bytes := f.recep.Federation().VocabularySize()
	if terms == 0 || bytes == 0 {
		t.Fatalf("vocabulary size = %d terms, %d bytes", terms, bytes)
	}
}

func TestGroupedIndexProperties(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)

	g1, err := BuildGrouped(f.termsOf, 1, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	g10, err := BuildGrouped(f.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if g1.ix.NumDocs() != uint32(len(f.termsOf)) {
		t.Fatalf("G=1 groups = %d, want %d", g1.ix.NumDocs(), len(f.termsOf))
	}
	wantGroups := (len(f.termsOf) + 9) / 10
	if g10.ix.NumDocs() != uint32(wantGroups) {
		t.Fatalf("G=10 groups = %d, want %d", g10.ix.NumDocs(), wantGroups)
	}
	// Grouping must shrink the index (the paper: G=10 halves it).
	if g10.SizeBytes() >= g1.SizeBytes() {
		t.Fatalf("G=10 index %d bytes >= G=1 index %d bytes", g10.SizeBytes(), g1.SizeBytes())
	}
	// Expand clips at the collection end.
	lastGroup := g10.ix.NumDocs() - 1
	docs := g10.Expand([]uint32{lastGroup})
	for _, d := range docs {
		if d >= uint32(len(f.termsOf)) {
			t.Fatalf("Expand produced doc %d beyond collection", d)
		}
	}
	if _, err := BuildGrouped(f.termsOf, 0, testAnalyzer()); err == nil {
		t.Fatal("G=0: want error")
	}
	if _, err := BuildGrouped(nil, 5, testAnalyzer()); err == nil {
		t.Fatal("empty corpus: want error")
	}
}

func TestMonoServerValidation(t *testing.T) {
	if _, err := NewMonoServer(nil, nil, nil); err == nil {
		t.Fatal("nil engine: want error")
	}
}

func TestSplitKey(t *testing.T) {
	name, local := splitKey("AP:15")
	if name != "AP" || local != 15 {
		t.Fatalf("splitKey = %s, %d", name, local)
	}
	name, local = splitKey("weird")
	if name != "weird" || local != 0 {
		t.Fatalf("malformed key: %s, %d", name, local)
	}
}

func TestDistributedBoolean(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)

	// Union semantics: "alpha OR federal" matches AP topical docs and FR
	// topical docs; compare against a direct per-subcollection evaluation.
	res, err := f.recep.Boolean(context.Background(), "alpha OR federal", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range order {
		for i, d := range corpus[name] {
			if strings.Contains(d.Text, "alpha") || strings.Contains(d.Text, "federal") {
				want[name+":"+strconv.Itoa(i)] = true
			}
		}
	}
	got := map[string]bool{}
	for _, a := range res.Answers {
		got[a.Key()] = true
		if a.Score != 0 {
			t.Fatal("Boolean answers must carry no similarity score")
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Boolean union has %d docs, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing %s from Boolean union", k)
		}
	}
	// Answers arrive in global-doc order.
	for i := 1; i < len(res.Answers); i++ {
		if res.Answers[i].GlobalDoc <= res.Answers[i-1].GlobalDoc {
			t.Fatal("Boolean answers not in global order")
		}
	}
	if res.Trace.RoundTrips(PhaseRank) != len(order) {
		t.Fatalf("Boolean asked %d librarians", res.Trace.RoundTrips(PhaseRank))
	}
	if res.Trace.LibrarianWork().PostingsDecoded == 0 {
		t.Fatal("Boolean stats not propagated")
	}
}

func TestDistributedBooleanParseError(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.Boolean(context.Background(), "alpha AND (", Options{}); err == nil {
		t.Fatal("malformed Boolean expression: want error")
	}
}

// TestRemoteCentralIndexEquivalence verifies that the grouped central index
// built over the wire (SetupCentralIndexRemote: grouped at the librarians,
// folded at the receptionist) is byte for byte the one built from the
// original documents (BuildGrouped), whether each librarian holds its
// collection as one segment or several, and that CI queries run against it.
func TestRemoteCentralIndexEquivalence(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	// Groups straddle both librarian boundaries.
	if n := len(corpus[order[0]]); n%10 == 0 || (n+len(corpus[order[1]]))%10 == 0 {
		t.Fatalf("librarian boundaries fall on group boundaries")
	}
	local, err := BuildGrouped(f.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	want := sha256Of(t, local)
	for _, n := range []int{1, 2, 5} {
		dialer, _ := newSegmentedDialer(t, corpus, order, n)
		pool, err := NewPool(dialer, order, Config{Analyzer: testAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			pool.Close()
			dialer.Wait()
		})
		trace, err := pool.SetupCentralIndexRemote(10)
		if err != nil {
			t.Fatal(err)
		}
		if trace.BytesTransferred(PhaseSetup) == 0 {
			t.Fatal("index transfer cost not recorded")
		}
		if got := sha256Of(t, pool.Federation().CentralIndex()); got != want {
			t.Fatalf("%d segments: remote grouped index hashes to %s, BuildGrouped's to %s", n, got, want)
		}
	}
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.recep.SetupCentralIndexRemote(10); err != nil {
		t.Fatal(err)
	}
	res, err := f.recep.Query(ModeCI, "alpha federal", 5, Options{KPrime: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("CI query over remote central index returned nothing")
	}
}

func TestBuildGroupedFromIndexesValidation(t *testing.T) {
	if _, err := BuildGroupedFromIndexes(nil, []uint32{0}, 10, 5, testAnalyzer()); err == nil {
		t.Fatal("mismatched offsets: want error")
	}
	if _, err := BuildGroupedFromIndexes(nil, nil, 0, 5, testAnalyzer()); err == nil {
		t.Fatal("empty collection: want error")
	}
	if _, err := BuildGroupedFromIndexes(nil, nil, 10, 0, testAnalyzer()); err == nil {
		t.Fatal("zero group size: want error")
	}
	b := index.NewBuilder()
	b.Add([]string{"x"})
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, offsets := range [][]uint32{{0, 0}, {0, 2}, {1, 0}} {
		if _, err := BuildGroupedFromIndexes([]*index.Index{ix, ix}, offsets, 2, 5, testAnalyzer()); err == nil {
			t.Fatalf("offsets %v do not tile 2 docs: want error", offsets)
		}
	}
}
