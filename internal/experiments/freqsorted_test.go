package experiments

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/textproc"
)

// persinFixture indexes docs (whitespace-separated terms, no stopping or
// stemming) document-sorted and frequency-sorted.
func persinFixture(t testing.TB, docs []string) (*freqSorted, *search.Engine) {
	t.Helper()
	a := textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
	b := index.NewBuilder()
	for _, d := range docs {
		b.Add(a.Terms(nil, d))
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := buildFreqSorted(ix)
	if err != nil {
		t.Fatal(err)
	}
	return fs, search.NewEngine(ix, a)
}

// TestPrunedZeroThresholdExact pins the key correctness property: with zero
// thresholds, frequency-sorted evaluation returns exactly the same scores
// as the document-sorted engine.
func TestPrunedZeroThresholdExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	docs := make([]string, 600)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 40; j++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(300)) + " ")
		}
		docs[i] = sb.String()
	}
	fs, exact := persinFixture(t, docs)
	for _, q := range []string{"w1 w2 w3", "w10 w200 w299 w4 w4", "w7"} {
		ranking, err := exact.Rank(q, 25, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := ranking.Results
		ranking, err = fs.rank(exact.Analyzer(), q, 25, thresholds{})
		if err != nil {
			t.Fatal(err)
		}
		got := ranking.Results
		if len(got) != len(want) {
			t.Fatalf("query %q: pruned %d results, exact %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i].Doc != want[i].Doc || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("query %q rank %d: pruned %+v, exact %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestPrunedThresholdSavesWork verifies the Persin result's direction:
// nonzero thresholds decode fewer postings while preserving the head of the
// ranking.
func TestPrunedThresholdSavesWork(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	docs := make([]string, 2000)
	for i := range docs {
		var sb strings.Builder
		// Most documents match query terms only incidentally (f_dt = 1);
		// a few dozen "hot" documents use them heavily. This is the
		// frequency skew real text has and that makes thresholding safe:
		// high-ranking documents owe their scores to high-f_dt matches.
		hot := i%67 == 0
		for j := 0; j < 50; j++ {
			term := "w" + strconv.Itoa(rng.Intn(150))
			reps := 1
			if hot && rng.Intn(6) == 0 {
				term = "w" + strconv.Itoa(rng.Intn(5)+1) // a query term
				reps = rng.Intn(8) + 5
			}
			for r := 0; r < reps; r++ {
				sb.WriteString(term + " ")
			}
		}
		docs[i] = sb.String()
	}
	fs, exact := persinFixture(t, docs)
	query := "w1 w2 w3 w4 w5"

	ranking, err := fs.rank(exact.Analyzer(), query, 20, thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	full, fullStats := ranking.Results, ranking.Stats
	ranking, err = fs.rank(exact.Analyzer(), query, 20, thresholds{Insert: 0.55, Add: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	cut, cutStats := ranking.Results, ranking.Stats
	if cutStats.PostingsDecoded >= fullStats.PostingsDecoded {
		t.Fatalf("thresholding decoded %d postings vs full %d: no saving",
			cutStats.PostingsDecoded, fullStats.PostingsDecoded)
	}
	// Top answers should overlap strongly.
	want := map[uint32]bool{}
	for _, r := range full[:10] {
		want[r.Doc] = true
	}
	hits := 0
	for _, r := range cut[:10] {
		if want[r.Doc] {
			hits++
		}
	}
	if hits < 6 {
		t.Fatalf("only %d of top-10 preserved under thresholding", hits)
	}
	t.Logf("postings: full %d, thresholded %d (%.1fx); top-10 overlap %d/10",
		fullStats.PostingsDecoded, cutStats.PostingsDecoded,
		float64(fullStats.PostingsDecoded)/float64(cutStats.PostingsDecoded), hits)
}

func TestPrunedValidation(t *testing.T) {
	fs, exact := persinFixture(t, []string{"a b c", "b c d"})
	a := exact.Analyzer()
	if _, err := fs.rank(a, "a", 0, thresholds{}); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := fs.rank(a, "!!!", 5, thresholds{}); !errors.Is(err, search.ErrEmptyQuery) {
		t.Fatalf("want ErrEmptyQuery, got %v", err)
	}
	ranking, err := fs.rank(a, "zzz", 5, thresholds{})
	if err != nil || len(ranking.Results) != 0 {
		t.Fatalf("unknown term: %v, %v", ranking.Results, err)
	}
}

// TestPrunedTiedCapDeterministicOrder is the regression test for the
// unstable-sort bug: "aa" and "bb" are engineered to have identical
// contribution caps (same f_t, same f_qt, same max f_dt), and d2/d3 are
// mirror images — each has one f_dt=4 match and one f_dt=1 match, on
// opposite terms. With Insert high enough that f_dt=1 runs may only update
// existing accumulators, whichever tied list is processed first decides
// which document keeps its small contribution. The stable term-string
// tie-break processes "aa" first, so d2 (aa⁴ bb¹ — accumulator created by
// aa's big run before bb's small run arrives) must outrank d3 (aa¹ bb⁴ —
// its aa¹ contribution is lost), identically on every run.
func TestPrunedTiedCapDeterministicOrder(t *testing.T) {
	docs := []string{
		"aa aa aa aa",    // d0: creates aa's f=4 run
		"bb bb bb bb",    // d1: creates bb's f=4 run
		"aa aa aa aa bb", // d2: aa f=4, bb f=1
		"aa bb bb bb bb", // d3: aa f=1, bb f=4
	}
	fs, exact := persinFixture(t, docs)
	th := thresholds{Insert: 0.9}
	var first []search.Result
	for run := 0; run < 25; run++ {
		// Query order "bb aa": without the tie-break the sort leaves the
		// tied terms in appearance order and bb runs first, flipping the
		// d2/d3 outcome — which is exactly what this test pins against.
		ranking, err := fs.rank(exact.Analyzer(), "bb aa", 4, th)
		if err != nil {
			t.Fatal(err)
		}
		got := ranking.Results
		if run == 0 {
			first = got
			if len(got) < 2 {
				t.Fatalf("got %d results, want >= 2", len(got))
			}
			// d2 keeps both contributions, d3 only its big one.
			var s2, s3 float64
			for _, r := range got {
				switch r.Doc {
				case 2:
					s2 = r.Score
				case 3:
					s3 = r.Score
				}
			}
			if !(s2 > s3) {
				t.Fatalf("tied-cap order wrong: score(d2)=%v <= score(d3)=%v — bb processed before aa", s2, s3)
			}
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("run %d: %d results, first run had %d", run, len(got), len(first))
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d rank %d: %+v, first run %+v — nondeterministic", run, i, got[i], first[i])
			}
		}
	}
}

// TestPrunedMetricsAccounting pins the pruned path's Stats against the
// exact engine's on the same collection: with zero thresholds every counter
// the two organisations share must agree, and IndexBytesRead must equal the
// frequency-sorted sizes of the matched lists.
func TestPrunedMetricsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	docs := make([]string, 400)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 30; j++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(120)) + " ")
		}
		docs[i] = sb.String()
	}
	fs, exact := persinFixture(t, docs)
	query := "w1 w2 w3 w999" // w999 absent
	exactRanking, err := exact.Rank(query, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	prunedRanking, err := fs.rank(exact.Analyzer(), query, 10, thresholds{})
	if err != nil {
		t.Fatal(err)
	}
	es, ps := exactRanking.Stats, prunedRanking.Stats
	if ps.TermsLooked != es.TermsLooked || ps.ListsFetched != es.ListsFetched ||
		ps.PostingsDecoded != es.PostingsDecoded || ps.CandidateDocs != es.CandidateDocs {
		t.Fatalf("zero-threshold pruned stats %+v disagree with exact %+v", ps, es)
	}
	var wantBytes uint64
	for _, term := range []string{"w1", "w2", "w3"} {
		lb := uint64(len(fs.lists[term].data))
		if lb == 0 {
			t.Fatalf("list bytes of %q = 0", term)
		}
		wantBytes += lb
	}
	if _, ok := fs.lists["w999"]; ok {
		t.Fatal("absent term has a list")
	}
	if ps.IndexBytesRead != wantBytes {
		t.Fatalf("IndexBytesRead = %d, want sum of matched list bytes %d", ps.IndexBytesRead, wantBytes)
	}
}

func TestFreqSortedIndexProperties(t *testing.T) {
	fs, _ := persinFixture(t, []string{
		"x x x y", // x f=3
		"x y y",   // x f=1, y f=2
		"x x z",   // x f=2
	})
	if fs.lists["x"].ft != 3 || fs.lists["absent"].ft != 0 {
		t.Fatalf("f_t wrong")
	}
	if fs.lists["x"].maxFDT != 3 {
		t.Fatalf("max f_dt of x = %d, want 3", fs.lists["x"].maxFDT)
	}
	var c freqCursor
	if !c.open(fs.lists["x"], fs.numDocs) {
		t.Fatal("open x: false")
	}
	var fdts []uint32
	var total int
	for {
		fdt, docs, ok := c.nextRun()
		if !ok {
			break
		}
		fdts = append(fdts, fdt)
		total += len(docs)
	}
	if total != 3 {
		t.Fatalf("runs covered %d postings, want 3", total)
	}
	for i := 1; i < len(fdts); i++ {
		if fdts[i] >= fdts[i-1] {
			t.Fatalf("runs not in decreasing f_dt order: %v", fdts)
		}
	}
	if fs.bytes == 0 || fs.numDocs != 3 {
		t.Fatal("size/docs wrong")
	}
}

// TestFreqCursorReset checks the frequency-sorted cursor's reuse path
// against fresh cursors, run for run.
func TestFreqCursorReset(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	docs := make([]string, 400)
	for d := range docs {
		terms := []string{"common"} // full-length list: one posting per doc
		for i := 0; i < 8; i++ {
			terms = append(terms, "t"+strconv.Itoa(rng.Intn(50)))
		}
		for i := 0; i < rng.Intn(3); i++ {
			terms = append(terms, "rare"+strconv.Itoa(rng.Intn(500)))
		}
		docs[d] = strings.Join(terms, " ")
	}
	fs, _ := persinFixture(t, docs)
	var reused freqCursor
	for term, l := range fs.lists {
		var fresh freqCursor
		if !fresh.open(l, fs.numDocs) || !reused.open(l, fs.numDocs) {
			t.Fatalf("term %q: open failed", term)
		}
		for {
			f1, d1, ok1 := fresh.nextRun()
			f2, d2, ok2 := reused.nextRun()
			if ok1 != ok2 || f1 != f2 || len(d1) != len(d2) {
				t.Fatalf("term %q: run diverged (ok %v/%v, fdt %d/%d, len %d/%d)",
					term, ok1, ok2, f1, f2, len(d1), len(d2))
			}
			if !ok1 {
				break
			}
			for i := range d1 {
				if d1[i] != d2[i] {
					t.Fatalf("term %q fdt %d doc %d: %d vs %d", term, f1, i, d1[i], d2[i])
				}
			}
		}
		if fresh.decoded != reused.decoded {
			t.Fatalf("term %q: decoded %d vs %d", term, fresh.decoded, reused.decoded)
		}
	}
}

func BenchmarkPrunedRank(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	docs := make([]string, 3000)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 60; j++ {
			sb.WriteString("w" + strconv.Itoa(rng.Intn(500)) + " ")
		}
		docs[i] = sb.String()
	}
	fs, exact := persinFixture(b, docs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.rank(exact.Analyzer(), "w1 w2 w3 w4 w5 w6", 20, thresholds{Insert: 0.1, Add: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
}
