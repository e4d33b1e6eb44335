// Package search implements the mono-server ranked query evaluator that each
// librarian (and the MS baseline) runs: cosine similarity with logarithmic
// in-document frequency, accumulator-based evaluation, and a top-k heap.
//
// The similarity is the one used in the paper (§2):
//
//	C(q,d) = Σ_{t∈q∩d} w_{q,t}·w_{d,t} / (W_q · W_d)
//	w_{d,t} = log(f_{d,t}+1)
//	w_{q,t} = log(f_{q,t}+1) · log(N/f_t + 1)
//
// The collection-dependent part, log(N/f_t+1), lives entirely in the query
// weight. Callers may therefore substitute externally supplied weights
// (the Central Vocabulary methodology) without touching document weights.
//
// Evaluation runs on a zero-steady-state-allocation kernel: a pooled Scratch
// holds flat epoch-stamped accumulators sized to the collection, postings
// arrive a decode block at a time through a reusable cursor, w_dt comes from
// a memoised log table, and normalisation reads the index's cached
// reciprocal-weight array. Rank and ScoreDocs borrow a Scratch from the
// shared pool; RankWith and ScoreDocsWith accept a caller-owned one.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"teraphim/internal/index"
	"teraphim/internal/textproc"
)

// ErrEmptyQuery is returned when a query contains no indexable terms.
var ErrEmptyQuery = errors.New("search: query has no indexable terms")

// Result is one ranked answer.
type Result struct {
	Doc   uint32
	Score float64
}

// Ranking is a completed query evaluation: the answers in decreasing score
// order plus the work the evaluation performed. The convenience entry points
// (Rank, ScoreDocs, PrunedEngine.Rank) return it instead of positional
// (results, stats, err) triples; the caller-owned-Scratch kernel methods
// (RankWith, ScoreDocsWith) keep the flat form for zero-allocation use.
type Ranking struct {
	Results []Result
	Stats   Stats
}

// Stats captures the work a query performed, feeding the cost model of the
// distributed experiments.
type Stats struct {
	TermsLooked     int    // dictionary lookups
	ListsFetched    int    // inverted lists actually read
	PostingsDecoded uint64 // postings decoded (skips reduce this)
	IndexBytesRead  uint64 // compressed bytes of the lists touched
	CandidateDocs   int    // accumulators allocated
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.TermsLooked += other.TermsLooked
	s.ListsFetched += other.ListsFetched
	s.PostingsDecoded += other.PostingsDecoded
	s.IndexBytesRead += other.IndexBytesRead
	s.CandidateDocs += other.CandidateDocs
}

// Engine evaluates queries against one collection.
type Engine struct {
	ix       *index.Index
	analyzer *textproc.Analyzer
}

// NewEngine wraps an index with the analysis pipeline used at build time.
func NewEngine(ix *index.Index, analyzer *textproc.Analyzer) *Engine {
	return &Engine{ix: ix, analyzer: analyzer}
}

// Index exposes the underlying index (read-only usage expected).
func (e *Engine) Index() *index.Index { return e.ix }

// Analyzer exposes the engine's analysis pipeline so other components (a
// receptionist, an evaluation harness) can analyse queries identically.
func (e *Engine) Analyzer() *textproc.Analyzer { return e.analyzer }

// ParseQuery analyses raw query text into term frequencies f_{q,t}.
func (e *Engine) ParseQuery(query string) map[string]uint32 {
	terms := e.analyzer.Terms(nil, query)
	freqs := make(map[string]uint32, len(terms))
	for _, t := range terms {
		freqs[t]++
	}
	return freqs
}

// parseQueryInto analyses query into s.qterms (term + f_qt, in order of first
// appearance), reusing the scratch's tokenizer buffers. Query vocabularies
// are tiny, so duplicate detection is a linear scan rather than a map.
func parseQueryInto(s *Scratch, a *textproc.Analyzer, query string) {
	s.terms, s.raw = a.TermsScratch(s.terms[:0], s.raw, query)
	s.qterms = s.qterms[:0]
outer:
	for _, t := range s.terms {
		for i := range s.qterms {
			if s.qterms[i].term == t {
				s.qterms[i].fqt++
				continue outer
			}
		}
		s.qterms = append(s.qterms, queryTerm{term: t, fqt: 1})
	}
}

// LocalWeight returns this collection's w_{q,t} for a term with query
// frequency fqt: log(f_qt+1)·log(N/f_t+1). It returns 0 when the term is
// absent from the collection.
func (e *Engine) LocalWeight(term string, fqt uint32) float64 {
	ft := e.ix.TermFreq(term)
	if ft == 0 {
		return 0
	}
	n := float64(e.ix.NumDocs())
	return logF1(fqt) * math.Log(n/float64(ft)+1)
}

// CollectionWeight returns w_{q,t} = log(f_qt+1)·log(N/f_t+1) for explicit
// collection-wide statistics, 0 when ft is 0. It is the statistics-supplied
// form of LocalWeight and shares its memoized log table, so an evaluator
// that sums per-segment f_t and total N and feeds the result here produces
// bitwise-identical weights to a single index built over the whole
// collection — the property the librarian's segmented manifest relies on
// for rank parity.
func CollectionWeight(fqt, ft, numDocs uint32) float64 {
	if ft == 0 {
		return 0
	}
	return logF1(fqt) * math.Log(float64(numDocs)/float64(ft)+1)
}

// QueryWeights computes the local w_{q,t} map for an analysed query.
func (e *Engine) QueryWeights(freqs map[string]uint32) map[string]float64 {
	weights := make(map[string]float64, len(freqs))
	for t, fqt := range freqs {
		if w := e.LocalWeight(t, fqt); w > 0 {
			weights[t] = w
		}
	}
	return weights
}

// queryNorm computes W_q = sqrt(Σ w_{q,t}²). A zero norm (no term matched)
// yields 1 to avoid dividing by zero; scores are all zero in that case.
func queryNorm(weights map[string]float64) float64 {
	var sum float64
	for _, w := range weights {
		sum += w * w
	}
	if sum == 0 {
		return 1
	}
	return math.Sqrt(sum)
}

// resolveWeights fills the wqt of every parsed query term and returns W_q.
// With weights nil each term gets this collection's local weight (MS/CN);
// otherwise weights is authoritative (CV) and terms absent from it stay at
// weight 0. Either way W_q is summed in query-appearance order, never map
// order: every evaluator of the same query — the mono server and each CV
// librarian — must produce the bitwise-same norm, or ULP-level wobble
// reorders tied documents across collections.
func (e *Engine) resolveWeights(s *Scratch, weights map[string]float64) float64 {
	var sum float64
	for i := range s.qterms {
		var w float64
		if weights != nil {
			w = weights[s.qterms[i].term]
		} else {
			w = e.LocalWeight(s.qterms[i].term, s.qterms[i].fqt)
		}
		s.qterms[i].wqt = w
		sum += w * w
	}
	if sum == 0 {
		return 1
	}
	return math.Sqrt(sum)
}

// Rank evaluates a ranked query and returns the top k documents in
// decreasing score order. If weights is nil the engine derives local
// weights (MS and CN behaviour); otherwise the supplied global weights are
// used verbatim (CV behaviour) and terms absent from weights are skipped.
// Scratch state comes from the shared pool; use RankWith to supply your own.
func (e *Engine) Rank(query string, k int, weights map[string]float64) (Ranking, error) {
	return e.RankContext(context.Background(), query, k, weights)
}

// RankEval is Rank under an explicit evaluator (see Evaluator); EvalExact
// reproduces Rank.
func (e *Engine) RankEval(query string, k int, weights map[string]float64, eval Evaluator) (Ranking, error) {
	return e.RankContextEval(context.Background(), query, k, weights, eval)
}

// RankContext is Rank honouring a context: cancellation is checked between
// inverted lists, so a long multi-term evaluation stops promptly when the
// caller gives up.
func (e *Engine) RankContext(ctx context.Context, query string, k int, weights map[string]float64) (Ranking, error) {
	return e.RankContextEval(ctx, query, k, weights, EvalExact)
}

// RankContextEval is RankContext under an explicit evaluator. The dynamic
// pruners check cancellation between candidate batches rather than between
// lists (they hold all lists open at once), with the same promptness.
func (e *Engine) RankContextEval(ctx context.Context, query string, k int, weights map[string]float64, eval Evaluator) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := e.rankWith(ctx, s, query, k, weights, eval)
	return Ranking{Results: results, Stats: stats}, err
}

// RankWith is Rank running on a caller-owned Scratch. In steady state the
// only allocation left is the returned result slice.
func (e *Engine) RankWith(s *Scratch, query string, k int, weights map[string]float64) ([]Result, Stats, error) {
	return e.rankWith(nil, s, query, k, weights, EvalExact)
}

// RankWithEval is RankWith under an explicit evaluator.
func (e *Engine) RankWithEval(s *Scratch, query string, k int, weights map[string]float64, eval Evaluator) ([]Result, Stats, error) {
	return e.rankWith(nil, s, query, k, weights, eval)
}

// rankWith is the shared kernel behind Rank/RankContext/RankWith and their
// Eval variants. A nil ctx skips the cancellation checks entirely, keeping
// the hot kernel path free of even the ctx.Err() loads.
func (e *Engine) rankWith(ctx context.Context, s *Scratch, query string, k int, weights map[string]float64, eval Evaluator) ([]Result, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, fmt.Errorf("search: k must be positive, got %d", k)
	}
	if !eval.Valid() {
		return nil, stats, fmt.Errorf("%w: %d", ErrUnknownEvaluator, uint8(eval))
	}
	parseQueryInto(s, e.analyzer, query)
	if len(s.qterms) == 0 {
		return nil, stats, ErrEmptyQuery
	}
	wq := e.resolveWeights(s, weights)
	stats.TermsLooked = len(s.qterms)

	if eval != EvalExact {
		results, err := e.rankDynamic(ctx, s, k, wq, eval, &stats)
		return results, stats, err
	}

	numDocs := e.ix.NumDocs()
	s.reset(numDocs)
	for i := range s.qterms {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		qt := &s.qterms[i]
		if qt.wqt <= 0 {
			continue
		}
		if err := e.ix.ResetCursor(&s.cur, qt.term); err != nil {
			// Term in the weight map but not this collection: skip.
			continue
		}
		stats.ListsFetched++
		stats.IndexBytesRead += s.cur.ListBytes()
		for {
			blk := s.cur.NextBlock()
			if blk == nil {
				break
			}
			for _, p := range blk {
				if p.Doc >= numDocs {
					continue // corrupt list; flat accumulators cannot hold it
				}
				s.add(p.Doc, qt.wqt*logF1(p.FDT))
			}
		}
		stats.PostingsDecoded += s.cur.DecodedPostings
	}
	stats.CandidateDocs = len(s.touched)

	results := e.topK(s, k, wq)
	return results, stats, nil
}

// ScoreDocs computes exact similarity scores for the nominated documents
// only, using skip-based cursor advancement. This is the librarian-side fast
// path of the Central Index methodology: only a fraction of each inverted
// list is decoded. Results are returned for every requested doc (score 0 if
// no query term matches), in the order requested.
func (e *Engine) ScoreDocs(query string, docs []uint32, weights map[string]float64) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := e.ScoreDocsWith(s, query, docs, weights)
	return Ranking{Results: results, Stats: stats}, err
}

// ScoreDocsWith is ScoreDocs running on a caller-owned Scratch.
func (e *Engine) ScoreDocsWith(s *Scratch, query string, docs []uint32, weights map[string]float64) ([]Result, Stats, error) {
	out := make([]Result, len(docs))
	stats, err := e.ScoreDocsAt(s, query, docs, 0, weights, out)
	if err != nil {
		return nil, stats, err
	}
	for _, d := range docs {
		if d >= e.ix.NumDocs() {
			_, err := e.ix.DocWeight(d) // canonical out-of-range error
			return nil, stats, fmt.Errorf("search: score doc %d: %w", d, err)
		}
	}
	return out, stats, nil
}

// ScoreDocsAt is the kernel of ScoreDocs for an engine holding one slice of
// a larger collection: docs are ids in a space where this engine's document
// 0 is base. It scores those that fall in the engine's range and writes
// out[i] for docs[i]; slots of documents outside the range are left alone,
// and with none inside it no list is touched.
func (e *Engine) ScoreDocsAt(s *Scratch, query string, docs []uint32, base uint32, weights map[string]float64, out []Result) (Stats, error) {
	var stats Stats
	parseQueryInto(s, e.analyzer, query)
	if len(s.qterms) == 0 {
		return stats, ErrEmptyQuery
	}
	numDocs := e.ix.NumDocs()
	s.docbuf = s.docbuf[:0]
	for _, d := range docs {
		if d-base < numDocs {
			s.docbuf = append(s.docbuf, d-base)
		}
	}
	if len(s.docbuf) == 0 {
		return stats, nil
	}
	slices.Sort(s.docbuf)
	wq := e.resolveWeights(s, weights)
	stats.TermsLooked = len(s.qterms)
	s.reset(numDocs)

	for i := range s.qterms {
		qt := &s.qterms[i]
		if qt.wqt <= 0 {
			continue
		}
		if err := e.ix.ResetCursor(&s.cur, qt.term); err != nil {
			continue
		}
		stats.ListsFetched++
		stats.IndexBytesRead += s.cur.ListBytes()
		for _, d := range s.docbuf {
			if !s.cur.Advance(d) {
				break
			}
			if p := s.cur.Posting(); p.Doc == d {
				s.add(d, qt.wqt*logF1(p.FDT))
			}
		}
		stats.PostingsDecoded += s.cur.DecodedPostings
	}
	stats.CandidateDocs = len(s.touched)

	inv := e.ix.InvDocWeights()
	for i, d := range docs {
		local := d - base
		if local >= numDocs {
			continue
		}
		score := 0.0
		if a := s.get(local); a > 0 && inv[local] > 0 {
			score = a * inv[local] / wq
		}
		out[i] = Result{Doc: d, Score: score}
	}
	return stats, nil
}

// topK normalises the touched accumulators by W_q·W_d and selects the k
// highest scoring documents, ties broken by ascending doc id. The selector
// runs on the scratch's heap backing; only the returned slice is allocated.
func (e *Engine) topK(s *Scratch, k int, wq float64) []Result {
	inv := e.ix.InvDocWeights()
	sel := NewTopK(k, lessResult, s.heap)
	for _, d := range s.touched {
		iw := inv[d]
		if iw == 0 {
			continue
		}
		sel.Offer(Result{Doc: d, Score: s.acc[d] * iw / wq})
	}
	ranked := sel.Extract()
	out := make([]Result, len(ranked))
	copy(out, ranked)
	s.heap = ranked[:0]
	return out
}

// lessResult orders results worst-first for the min-heap: lower score is
// less; equal scores break toward higher doc id being less-preferred.
func lessResult(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// SortResults orders results by decreasing score, ties by ascending doc id.
// Exposed for receptionist-side merging.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case lessResult(b, a):
			return -1
		case lessResult(a, b):
			return 1
		default:
			return 0
		}
	})
}
