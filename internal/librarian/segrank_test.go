package librarian

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"teraphim/internal/index"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// refLocalWeights, refRank and refSortResults are the per-segment rank the
// one-heap evaluation replaced, kept as the reference it must reproduce:
// collection-wide weights from f_t summed over the segments, each segment's
// own top k under them, and the best k of the union by sort and truncate.

func refLocalWeights(m *manifest, query string) (map[string]float64, bool) {
	terms := m.lib.analyzer.Terms(nil, query)
	if len(terms) == 0 {
		return nil, false
	}
	freqs := make(map[string]uint32, len(terms))
	for _, t := range terms {
		freqs[t]++
	}
	weights := make(map[string]float64, len(freqs))
	for t, fqt := range freqs {
		var ft uint64
		for _, sg := range m.segs {
			ft += uint64(sg.Index.Lookup(t).FT())
		}
		if ft == 0 {
			continue
		}
		weights[t] = search.CollectionWeight(fqt, uint32(ft), m.total)
	}
	return weights, true
}

func refRank(m *manifest, scratch *search.Scratch, q *protocol.RankQuery) protocol.Message {
	if q.Evaluator != 0 {
		return &protocol.ErrorReply{Message: fmt.Sprintf("unknown evaluator %d", q.Evaluator)}
	}
	k := int(q.K)
	if k <= 0 {
		return &protocol.ErrorReply{Message: fmt.Sprintf("search: k must be positive, got %d", k)}
	}
	weights := q.Weights
	if weights == nil {
		var ok bool
		if weights, ok = refLocalWeights(m, q.Query); !ok {
			return &protocol.RankReply{}
		}
	}
	var all []search.Result
	var stats search.Stats
	for _, sg := range m.segs {
		res, st, err := search.RankParts(nil, scratch, []search.Part{{Index: sg.Index}}, m.lib.analyzer, q.Query, k, weights)
		if err != nil {
			if errors.Is(err, search.ErrEmptyQuery) {
				return &protocol.RankReply{Stats: stats}
			}
			return &protocol.ErrorReply{Message: err.Error()}
		}
		stats.Add(st)
		for i := range res {
			res[i].Doc += sg.Base
		}
		if all == nil {
			all = res
		} else {
			all = append(all, res...)
		}
	}
	refSortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	reply := &protocol.RankReply{Results: make([]protocol.ScoredDoc, len(all)), Stats: stats}
	for i, r := range all {
		reply.Results[i] = protocol.ScoredDoc{Doc: r.Doc, Score: r.Score}
	}
	return reply
}

// refSortResults orders results by decreasing score, ties by ascending doc id.
func refSortResults(rs []search.Result) {
	less := func(a, b search.Result) bool {
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		return a.Doc > b.Doc
	}
	slices.SortFunc(rs, func(a, b search.Result) int {
		switch {
		case less(b, a):
			return -1
		case less(a, b):
			return 1
		default:
			return 0
		}
	})
}

// servedIn serves chunks as one segment each: the first built, the rest
// ingested one per Flush with background merging off.
func servedIn(t testing.TB, chunks ...[]store.Document) *Librarian {
	t.Helper()
	lib, err := Build("C", chunks[0], BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lib.Close() })
	if err := lib.ConfigureIngest(IngestConfig{MergeFanIn: -1}); err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks[1:] {
		ingestFlush(t, lib, c)
	}
	if got := len(lib.SegmentStats().Segments); got != len(chunks) {
		t.Fatalf("segments = %d, want %d", got, len(chunks))
	}
	return lib
}

// randomTiling cuts a random corpus into s segments in random order. With
// s ≥ 2 one segment holds a single document, and with s ≥ 3 one holds only
// words no query uses. About half the documents repeat the text of an
// earlier one, usually in another segment, so equal scores straddle segment
// boundaries.
func randomTiling(rng *rand.Rand, s int, vocab, filler []string) [][]store.Document {
	words := func(from []string) string {
		w := make([]string, 1+rng.Intn(12))
		for i := range w {
			w[i] = from[rng.Intn(len(from))]
		}
		return strings.Join(w, " ")
	}
	var texts []string
	chunks := make([][]store.Document, s)
	for i := range chunks {
		n := 5 + rng.Intn(40)
		if i == 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			text := words(vocab)
			switch {
			case i == 2:
				text = words(filler)
			case len(texts) > 0 && rng.Intn(2) == 0:
				text = texts[rng.Intn(len(texts))]
			}
			texts = append(texts, text)
			chunks[i] = append(chunks[i], store.Document{Title: fmt.Sprintf("d%d", len(texts)), Text: text})
		}
	}
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	return chunks
}

// TestRankAcrossSegmentsMatchesPerSegmentSort: ranking every segment into one
// top-k selector under a query prepared once answers exactly what each
// segment's own top k, united, sorted and truncated answered — documents and
// scores ==, and for the exact evaluator the work counters too — over random
// tilings of 1, 2, 3 and 5 segments, every evaluator, k of 1, 10 and 100,
// and local or explicit weights (some naming terms no segment holds).
func TestRankAcrossSegmentsMatchesPerSegmentSort(t *testing.T) {
	vocab := []string{"whale", "reef", "harbor", "storm", "lantern", "compass", "tide", "anchor", "gull", "mast"}
	filler := []string{"plover", "heron", "egret", "ibis", "curlew"}
	scratch := search.NewScratch()
	for round := 0; round < 40; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		lib := servedIn(t, randomTiling(rng, []int{1, 2, 3, 5}[round%4], vocab, filler)...)
		m := lib.man.Load()
		for qi := 0; qi < 4; qi++ {
			q := make([]string, 1+rng.Intn(4))
			for i := range q {
				q[i] = vocab[rng.Intn(len(vocab))]
			}
			if qi%2 == 1 {
				q = append(q, "narwhal") // in no segment
			}
			query := strings.Join(q, " ")
			explicit := make(map[string]float64)
			for _, term := range m.lib.analyzer.Terms(nil, query) {
				explicit[term] = 0.25 + 2*rng.Float64()
			}
			for _, weights := range []map[string]float64{nil, explicit} {
				for _, k := range []uint32{1, 10, 100} {
					req := &protocol.RankQuery{Query: query, K: k, Weights: weights}
					label := fmt.Sprintf("round %d (%d segments) k=%d %q weights %v", round, len(m.segs), k, query, weights)
					want, ok := refRank(m, scratch, req).(*protocol.RankReply)
					if !ok {
						t.Fatalf("%s: reference answered %T", label, want)
					}
					got, ok := m.rank(scratch, req).(*protocol.RankReply)
					if !ok {
						t.Fatalf("%s: answered %T", label, got)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s:\ngot  %+v\nwant %+v", label, got, want)
					}
				}
			}
		}
	}
}

// TestRankAllocationsFlatInSegments: a rank request and a Boolean request dispatched to the parity corpus allocate the same
// served as 1, 2 or 5 segments — nothing of a query's evaluation is per
// segment.
func TestRankAllocationsFlatInSegments(t *testing.T) {
	docs, queries := parityCorpus(t)
	libs := []*Librarian{servedAs(t, docs, 1), servedAs(t, docs, 2), servedAs(t, docs, 5)}
	terms := strings.Fields(queries[0].Text)
	reqs := map[string]protocol.Message{
		"boolean": &protocol.BooleanQuery{Expr: fmt.Sprintf("%s or (%s and not %s)", terms[0], terms[1], terms[2])},
		"rank":    &protocol.RankQuery{Query: queries[0].Text, K: 20},
	}
	for label, req := range reqs {
		var counts []float64
		for _, lib := range libs {
			scratch := search.NewScratch()
			dispatch := func() {
				if er, ok := lib.dispatch(scratch, req).(*protocol.ErrorReply); ok {
					t.Fatalf("%s: %s", label, er.Message)
				}
			}
			dispatch()
			counts = append(counts, testing.AllocsPerRun(50, dispatch))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Fatalf("%s: allocations per request over 1, 2, 5 segments = %v, want equal", label, counts)
		}
	}
}

// BenchmarkRankSegments prices a query over S segments against a query over
// one: short CN queries, k = 20, dispatched to the same 2,000 documents
// served as one segment and as five.
func BenchmarkRankSegments(b *testing.B) {
	cfg := trecsynth.DefaultConfig()
	cfg.Subs = []trecsynth.SubSpec{{Name: "C", NumDocs: 2000}}
	cfg.NumShortQueries, cfg.NumLongQueries = 32, 0
	c, err := trecsynth.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var reqs []*protocol.RankQuery
	for _, q := range c.QueriesOf(trecsynth.ShortQuery) {
		reqs = append(reqs, &protocol.RankQuery{Query: q.Text, K: 20})
	}
	for _, n := range []int{1, 5} {
		lib := servedAs(b, c.Subcollections[0].Docs, n)
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			scratch := search.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lib.dispatch(scratch, reqs[i%len(reqs)])
			}
		})
	}
}

// fleet is a set of built librarians and the queries sent to them.
type fleet struct {
	libs    []*Librarian
	queries []string
}

// longFleet is the cv-long-inproc deployment without its transport:
// trecsynth at twice its default size with a 20,000-word vocabulary, built
// as four librarians, and its 90-term queries. Built once per test binary.
// Each text model is trained on a 256-document sample rather than the whole
// collection: the model shapes only the stored text, never the index, and
// the sample halves the build.
var longFleet = sync.OnceValues(func() (fleet, error) {
	cfg := trecsynth.DefaultConfig()
	cfg.VocabSize = 20000
	cfg.NumShortQueries, cfg.NumLongQueries = 0, 256
	for i := range cfg.Subs {
		cfg.Subs[i].NumDocs *= 2
	}
	c, err := trecsynth.Generate(cfg)
	if err != nil {
		return fleet{}, err
	}
	libs := make([]*Librarian, len(c.Subcollections))
	errs := make([]error, len(libs))
	var wg sync.WaitGroup
	for i, sub := range c.Subcollections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			model, err := store.TrainModel(sub.Docs[:256])
			if err != nil {
				errs[i] = err
				return
			}
			analyzer := textproc.NewAnalyzer()
			sg, err := buildSegment(sub.Name, sub.Docs, analyzer, index.DefaultSkipInterval, model)
			if err != nil {
				errs[i] = err
				return
			}
			libs[i], errs[i] = New(sub.Name, sg.Index, analyzer, sg.store)
		}()
	}
	wg.Wait()
	var queries []string
	for _, q := range c.QueriesOf(trecsynth.LongQuery) {
		queries = append(queries, q.Text)
	}
	return fleet{libs, queries}, errors.Join(errs...)
})

// BenchmarkRankLongQueries prices the exhaustive kernel where it is most of
// a query: each iteration sends one 90-term query, k = 20, to each of the
// four long-fleet librarians on one Scratch. Most postings of such a query
// are a document's first touch, which the short-query benchmarks above
// rarely exercise. It reports the time per posting decoded and the
// accumulators created per query beside the allocations.
func BenchmarkRankLongQueries(b *testing.B) {
	start := time.Now()
	f, err := longFleet()
	if err != nil {
		b.Fatal(err)
	}
	libs, queries := f.libs, f.queries
	b.Logf("fleet of %d librarians and %d queries ready in %v", len(libs), len(queries), time.Since(start).Round(time.Millisecond))
	reqs := make([]*protocol.RankQuery, len(queries))
	for i, q := range queries {
		reqs[i] = &protocol.RankQuery{Query: q, K: 20}
	}
	scratch := search.NewScratch()
	var postings uint64
	var candidates int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lib := range libs {
			rr, ok := lib.dispatch(scratch, reqs[i%len(reqs)]).(*protocol.RankReply)
			if !ok {
				b.Fatal("rank request not answered with a ranking")
			}
			postings += rr.Stats.PostingsDecoded
			candidates += rr.Stats.CandidateDocs
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(postings), "ns/posting")
	b.ReportMetric(float64(candidates)/float64(b.N), "candidates/query")
}
