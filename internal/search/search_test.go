package search

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/index"
	"teraphim/internal/oracle"
	"teraphim/internal/textproc"
)

// plainAnalyzer keeps tests readable: no stopping, no stemming.
func plainAnalyzer() *textproc.Analyzer {
	return textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
}

// buildEngine indexes docs (whitespace-separated terms) with the plain
// analyzer.
func buildEngine(t testing.TB, docs []string) *Engine {
	t.Helper()
	a := plainAnalyzer()
	b := index.NewBuilder()
	for _, d := range docs {
		b.Add(a.Terms(nil, d))
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(ix, a)
}

var tinyDocs = []string{
	"cat dog cat",        // 0
	"dog fish",           // 1
	"cat fish bird fish", // 2
	"bird",               // 3
	"whale",              // 4
}

func TestRankAgainstReference(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	ranking, err := e.Rank("cat fish", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ranking.Stats.ListsFetched != 2 {
		t.Errorf("ListsFetched = %d, want 2", ranking.Stats.ListsFetched)
	}
	a := plainAnalyzer()
	docs := make([][]string, len(tinyDocs))
	for i, d := range tinyDocs {
		docs[i] = a.Terms(nil, d)
	}
	if msg := checkRanking(ranking.Results, oracle.Scores(docs, a.Terms(nil, "cat fish")), 10); msg != "" {
		t.Fatal(msg)
	}
}

func TestRankTopKBound(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	ranking, err := e.Rank("cat dog fish bird", 2, nil)
	results := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("k=2 returned %d results", len(results))
	}
	ranking, err = e.Rank("cat dog fish bird", 10, nil)
	all := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if results[0] != all[0] || results[1] != all[1] {
		t.Fatalf("top-2 %v differs from head of full ranking %v", results, all[:2])
	}
}

func TestRankErrors(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	if _, err := e.Rank("cat", 0, nil); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := e.Rank("@@@ !!!", 5, nil); err != ErrEmptyQuery {
		t.Errorf("unindexable query: want ErrEmptyQuery, got %v", err)
	}
	ranking, err := e.Rank("zebra", 5, nil)
	results := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("unknown term: got %d results", len(results))
	}
}

func TestRankWithSuppliedWeights(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	// Weight only "fish"; "cat" must then contribute nothing.
	weights := map[string]float64{"fish": 2.0}
	ranking, err := e.Rank("cat fish", 10, weights)
	results := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Doc == 0 {
			t.Error("doc 0 contains only cat; should not appear with fish-only weights")
		}
	}
	// Scaling all weights must not change the ranking order (cosine
	// normalises by W_q).
	w1 := map[string]float64{"cat": 1, "fish": 3}
	w2 := map[string]float64{"cat": 10, "fish": 30}
	ranking, err = e.Rank("cat fish", 10, w1)
	r1 := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	ranking, err = e.Rank("cat fish", 10, w2)
	r2 := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("length mismatch %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Doc != r2[i].Doc {
			t.Fatalf("order differs at %d under scaled weights", i)
		}
		if math.Abs(r1[i].Score-r2[i].Score) > 1e-9 {
			t.Fatalf("score differs at %d: %g vs %g (cosine must normalise)", i, r1[i].Score, r2[i].Score)
		}
	}
}

func TestScoreDocsMatchesRank(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	ranking, err := e.Rank("cat fish dog", 10, nil)
	full := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]float64{}
	for _, r := range full {
		want[r.Doc] = r.Score
	}
	docs := []uint32{2, 0, 4, 1}
	ranking, err = e.ScoreDocs("cat fish dog", docs, nil)
	scored := ranking.Results
	if err != nil {
		t.Fatal(err)
	}
	if len(scored) != len(docs) {
		t.Fatalf("ScoreDocs returned %d results for %d docs", len(scored), len(docs))
	}
	for i, r := range scored {
		if r.Doc != docs[i] {
			t.Fatalf("result %d is doc %d, want %d (order must be preserved)", i, r.Doc, docs[i])
		}
		if math.Abs(r.Score-want[r.Doc]) > 1e-9 {
			t.Fatalf("doc %d: ScoreDocs %g != Rank %g", r.Doc, r.Score, want[r.Doc])
		}
	}
}

func TestScoreDocsOutOfRange(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	if _, err := e.ScoreDocs("cat", []uint32{99}, nil); err == nil {
		t.Fatal("out-of-range doc: want error")
	}
}

func TestScoreDocsSkipEfficiency(t *testing.T) {
	// On a large collection, scoring a handful of docs must decode far
	// fewer postings than a full scan.
	rng := rand.New(rand.NewSource(11))
	var docs []string
	for i := 0; i < 4000; i++ {
		var sb strings.Builder
		sb.WriteString("common ")
		sb.WriteString("t" + strconv.Itoa(rng.Intn(50)))
		docs = append(docs, sb.String())
	}
	e := buildEngine(t, docs)
	targets := []uint32{100, 2000, 3999}
	ranking0, err := e.ScoreDocs("common", targets, nil)
	stats := ranking0.Stats
	if err != nil {
		t.Fatal(err)
	}
	if stats.PostingsDecoded > 1000 {
		t.Fatalf("ScoreDocs decoded %d postings for 3 docs: skipping ineffective", stats.PostingsDecoded)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{TermsLooked: 1, ListsFetched: 2, PostingsDecoded: 3, IndexBytesRead: 4, CandidateDocs: 5}
	b := Stats{TermsLooked: 10, ListsFetched: 20, PostingsDecoded: 30, IndexBytesRead: 40, CandidateDocs: 50}
	a.Add(b)
	want := Stats{TermsLooked: 11, ListsFetched: 22, PostingsDecoded: 33, IndexBytesRead: 44, CandidateDocs: 55}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestScorePartsTopKOrder: with k > 0 the nominated scores come back best
// first, equal scores by ascending doc id, cut to k.
func TestScorePartsTopKOrder(t *testing.T) {
	e := buildEngine(t, []string{"cat dog", "cat", "cat dog", "fish"})
	all, err := e.ScoreDocs("dog", []uint32{3, 2, 1, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := all.Results[1].Score
	if x <= 0 || all.Results[3].Score != x {
		t.Fatalf("docs 0 and 2 should tie above zero: %v", all.Results)
	}
	got, _, err := ScoreParts(NewScratch(), []Part{{Engine: e}}, "dog", []uint32{3, 2, 1, 0}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{{Doc: 0, Score: x}, {Doc: 2, Score: x}, {Doc: 1, Score: 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScoreParts k=3 = %v, want %v", got, want)
	}
}

func TestBooleanQueries(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	cases := []struct {
		expr string
		want []uint32
	}{
		{"cat", []uint32{0, 2}},
		{"cat AND fish", []uint32{2}},
		{"cat OR dog", []uint32{0, 1, 2}},
		{"cat AND NOT fish", []uint32{0}},
		{"NOT (cat OR dog OR fish OR bird)", []uint32{4}},
		{"(cat OR bird) AND fish", []uint32{2}},
		{"zebra", nil},
		{"zebra OR whale", []uint32{4}},
		{"cat and fish", []uint32{2}}, // lowercase keywords
	}
	for _, c := range cases {
		q, err := e.ParseBoolean(c.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", c.expr, err)
		}
		got, _ := e.EvaluateBoolean(q)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("eval %q = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestBooleanParseErrors(t *testing.T) {
	e := buildEngine(t, tinyDocs)
	for _, expr := range []string{"", "cat AND", "(cat", "cat)", "AND cat", "NOT"} {
		if _, err := e.ParseBoolean(expr); err == nil {
			t.Errorf("parse %q: want error", expr)
		}
	}
}

func TestBooleanHyphenatedToken(t *testing.T) {
	e := buildEngine(t, []string{"wide area network", "local area", "wide ocean"})
	q, err := e.ParseBoolean("wide-area")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := e.EvaluateBoolean(q)
	if !reflect.DeepEqual(got, []uint32{0}) {
		t.Fatalf("wide-area = %v, want [0]", got)
	}
}

func BenchmarkRank(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	docs := make([]string, 5000)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 60; j++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(2000)) + " ")
		}
		docs[i] = sb.String()
	}
	e := buildEngine(b, docs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Rank("w1 w2 w3 w4 w5 w6 w7 w8", 20, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScoreDocs(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	docs := make([]string, 5000)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 60; j++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(2000)) + " ")
		}
		docs[i] = sb.String()
	}
	e := buildEngine(b, docs)
	targets := []uint32{10, 500, 900, 2500, 4000, 4500}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ScoreDocs("w1 w2 w3 w4 w5 w6 w7 w8", targets, nil); err != nil {
			b.Fatal(err)
		}
	}
}
