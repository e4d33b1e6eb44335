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
// holds flat accumulators sized to the collection (live iff non-zero), postings
// arrive a decode block at a time through a reusable cursor, w_dt comes from
// a memoised log table, and normalisation reads the index's cached
// reciprocal-weight array.
//
// A collection may be several engines tiled over one document-id space (a
// segmented librarian): RankParts, ScoreParts and BooleanParts analyse the
// query once, then evaluate it over every part into one result. They are the
// only evaluation entry points; a single engine is the one-part case, and
// Rank and ScoreDocs are that case on a pooled Scratch.
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

// ErrInvalidWeight is returned when supplied weights hold a NaN (which would
// make every score NaN and the order undefined), an infinity or a negative.
var ErrInvalidWeight = errors.New("search: query weight is not a finite non-negative number")

// Result is one ranked answer.
type Result struct {
	Doc   uint32
	Score float64
}

// Ranking is a completed query evaluation: the answers in decreasing score
// order plus the work the evaluation performed. The one-engine conveniences
// (Rank, ScoreDocs) return it; RankParts and ScoreParts keep the flat form
// for zero-allocation use.
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

// Part is one engine of a collection tiled over a global document-id space:
// Base is the global id of its local document 0. Parts share an analyser.
type Part struct {
	Engine *Engine
	Base   uint32
}

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

// CollectionWeight returns w_{q,t} = log(f_qt+1)·log(N/f_t+1) for explicit
// collection-wide statistics, 0 when ft is 0. It shares the kernel's memoized
// log table, so an evaluator that sums per-segment f_t and total N and feeds
// the result here produces bitwise-identical weights to a single index built
// over the whole collection — the property a segmented collection relies on
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
		if w := CollectionWeight(fqt, e.ix.TermFreq(t), e.ix.NumDocs()); w > 0 {
			weights[t] = w
		}
	}
	return weights
}

// prepare analyses query once and resolves it in s for every part to
// evaluate: s.qterms in first-appearance order with f_qt and w_qt, and s.wq =
// W_q. With weights nil a term's weight comes from f_t summed over parts and
// N their total (MS/CN); otherwise weights is authoritative (CV) and terms
// absent from it weigh 0. W_q sums in query order, never map order, so every
// evaluator of a query — the mono server and each CV librarian — gets the
// bitwise-same norm; ULP wobble would reorder tied documents across
// collections. A zero norm is taken as 1.
func (s *Scratch) prepare(parts []Part, query string, weights map[string]float64) error {
	for term, w := range weights {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("%w: %q weighs %v", ErrInvalidWeight, term, w)
		}
	}
	parseQueryInto(s, parts[0].Engine.analyzer, query)
	if len(s.qterms) == 0 {
		return ErrEmptyQuery
	}
	var numDocs uint32
	for _, p := range parts {
		numDocs += p.Engine.ix.NumDocs()
	}
	var sum float64
	for i := range s.qterms {
		qt := &s.qterms[i]
		if weights != nil {
			qt.wqt = weights[qt.term]
		} else {
			var ft uint32
			for _, p := range parts {
				ft += p.Engine.ix.TermFreq(qt.term)
			}
			qt.wqt = CollectionWeight(qt.fqt, ft, numDocs)
		}
		sum += qt.wqt * qt.wqt
	}
	s.wq = 1
	if sum != 0 {
		s.wq = math.Sqrt(sum)
	}
	return nil
}

// Rank is RankParts over this engine alone on a pooled Scratch: the top k
// documents in decreasing score order. If weights is nil the engine derives
// local weights (MS and CN behaviour); otherwise the supplied global weights
// are used verbatim (CV behaviour) and terms absent from weights are skipped.
func (e *Engine) Rank(query string, k int, weights map[string]float64) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := RankParts(nil, s, []Part{{Engine: e}}, query, k, weights)
	return Ranking{Results: results, Stats: stats}, err
}

// RankParts ranks query over parts as one collection: prepared once, every
// part offering its candidates (ids offset by its base) to one top-k
// selector, so a later part starts from the threshold earlier parts set and
// ties break by ascending global id as on a single index. Stats sum every
// part's work. A nil ctx skips the cancellation checks entirely.
func RankParts(ctx context.Context, s *Scratch, parts []Part, query string, k int, weights map[string]float64) ([]Result, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, fmt.Errorf("search: k must be positive, got %d", k)
	}
	if err := s.prepare(parts, query, weights); err != nil {
		return nil, stats, err
	}
	sel := NewTopK(k, LessResult, s.heap)
	var err error
	for _, p := range parts {
		if err = p.Engine.rankPrepared(ctx, s, p.Base, &sel, &stats); err != nil {
			break
		}
	}
	out := s.extract(&sel)
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// rankPrepared is the one ranking kernel: it evaluates the query prepared in
// s over this engine term at a time, every posting of every list into flat
// accumulators, offers every scored document to sel with its id offset by
// base, and adds its work to stats.
func (e *Engine) rankPrepared(ctx context.Context, s *Scratch, base uint32, sel *TopK[Result], stats *Stats) error {
	stats.TermsLooked += len(s.qterms)
	s.reset(e.ix.NumDocs())
	acc, touched, n := s.acc[:e.ix.NumDocs()], s.touched[:cap(s.touched)], 0
	for i := range s.qterms {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		qt := &s.qterms[i]
		if qt.wqt <= 0 || !e.ix.OpenCursor(&s.cur, qt.term) {
			continue // zero weight, or in the weight map but not this collection
		}
		stats.ListsFetched++
		stats.IndexBytesRead += s.cur.ListBytes()
		// First touch by conditional move, not a coin-toss branch: d always
		// takes the next touched slot, kept only if its accumulator was zero.
		for blk := s.cur.NextBlock(); blk != nil; blk = s.cur.NextBlock() {
			for _, p := range blk {
				d := p.Doc
				if int(d) >= len(acc) {
					continue // corrupt list; flat accumulators cannot hold it
				}
				a := acc[d]
				touched[n] = d
				if a == 0 {
					n++
				}
				acc[d] = a + qt.wqt*logF1(p.FDT)
			}
		}
		s.touched = touched[:n]
		stats.PostingsDecoded += s.cur.DecodedPostings
	}
	stats.CandidateDocs += len(s.touched)
	s.offerTouched(sel, e.ix.InvDocWeights(), base)
	return nil
}

// offerTouched normalises the touched accumulators by W_q·W_d into sel, in
// first-touch order, ids offset by base; a document with W_d = 0 cannot
// score and is skipped. Only a candidate that can enter sel is divided.
func (s *Scratch) offerTouched(sel *TopK[Result], inv []float64, base uint32) {
	cut := 0.0 // rejects nothing while sel fills
	for _, d := range s.touched {
		if x := s.acc[d] * inv[d]; x >= cut && inv[d] != 0 {
			offer(sel, Result{Doc: base + d, Score: x / s.wq})
			cut = rejectBelow(threshold(sel), s.wq)
		}
	}
}

// threshold is the score a candidate must reach to enter sel: the root's
// once sel is full — set by earlier parts too — and -∞ while it fills.
func threshold(sel *TopK[Result]) float64 {
	if len(sel.h) < sel.k {
		return math.Inf(-1)
	}
	return sel.h[0].Score
}

// rejectBelow is a bound under which every x divides, x/wq, to strictly
// below root: root·wq·(1−1e−9), whose few roundings of 2⁻⁵³ the margin
// covers while root and the bound are normal numbers. Otherwise — a filling
// heap's −∞ included — it is 0, which rejects nothing.
func rejectBelow(root, wq float64) float64 {
	cut := root * wq * (1 - 1e-9)
	if root >= 0x1p-1000 && root <= math.MaxFloat64 && cut >= 0x1p-1022 && cut <= math.MaxFloat64 {
		return cut
	}
	return 0
}

// offer is sel.Offer behind an inline test of the heap root, so the
// candidates a full selector rejects — most of them, once earlier parts have
// raised its threshold — never reach its indirect less call. sel.k > 0.
func offer(sel *TopK[Result], r Result) {
	if len(sel.h) < sel.k || LessResult(sel.h[0], r) {
		sel.Offer(r)
	}
}

// extract empties sel into a fresh slice, best first, handing its (possibly
// grown) backing back to s.
func (s *Scratch) extract(sel *TopK[Result]) []Result {
	ranked := sel.Extract()
	s.heap = ranked[:0]
	out := make([]Result, len(ranked))
	copy(out, ranked)
	return out
}

// ScoreDocs is ScoreParts over this engine alone on a pooled Scratch, every
// nominated document returned in the order requested (score 0 if no query
// term matches). Skip-based cursor advancement decodes only a fraction of
// each list: the librarian-side fast path of the Central Index methodology.
func (e *Engine) ScoreDocs(query string, docs []uint32, weights map[string]float64) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := ScoreParts(s, []Part{{Engine: e}}, query, docs, weights, 0)
	return Ranking{Results: results, Stats: stats}, err
}

// ScoreParts is ScoreDocs over parts as one collection, docs being ids in the
// space the parts tile: the query is prepared once and each part scores the
// nominated documents it holds. With k zero every nominated document is
// returned in request order; otherwise the k best, best first, ties by
// ascending id. A nominated document no part holds is an error, reported
// only after an unindexable query had its chance to return ErrEmptyQuery.
func ScoreParts(s *Scratch, parts []Part, query string, docs []uint32, weights map[string]float64, k int) ([]Result, Stats, error) {
	var stats Stats
	if err := s.prepare(parts, query, weights); err != nil {
		return nil, stats, err
	}
	out := make([]Result, len(docs))
	var total uint32
	for _, p := range parts {
		p.Engine.scorePrepared(s, docs, p.Base, out, &stats)
		total += p.Engine.ix.NumDocs()
	}
	for _, d := range docs {
		if d >= total {
			return nil, stats, fmt.Errorf("search: score doc %d: index: doc %d outside collection of %d", d, d, total)
		}
	}
	if k > 0 {
		sel := NewTopK(k, LessResult, s.heap)
		for _, r := range out {
			offer(&sel, r)
		}
		ranked := sel.Extract()
		out = out[:copy(out, ranked)]
		s.heap = ranked[:0]
	}
	return out, stats, nil
}

// scorePrepared is the kernel of ScoreParts for one part: it scores, under
// the query prepared in s, the docs that fall in this engine's range — ids in
// a space where its document 0 is base — writing out[i] for docs[i] and
// adding its work to stats. Slots of documents outside the range are left
// alone, and with none inside it no list is touched.
func (e *Engine) scorePrepared(s *Scratch, docs []uint32, base uint32, out []Result, stats *Stats) {
	numDocs := e.ix.NumDocs()
	s.docbuf = s.docbuf[:0]
	for _, d := range docs {
		if d-base < numDocs {
			s.docbuf = append(s.docbuf, d-base)
		}
	}
	slices.Sort(s.docbuf)
	if s.docbuf = slices.Compact(s.docbuf); len(s.docbuf) == 0 {
		return // a repeated document is scored once, or its list would be added twice
	}
	stats.TermsLooked += len(s.qterms)
	s.reset(numDocs)

	for i := range s.qterms {
		qt := &s.qterms[i]
		if qt.wqt <= 0 || !e.ix.OpenCursor(&s.cur, qt.term) {
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
	stats.CandidateDocs += len(s.touched)

	inv := e.ix.InvDocWeights()
	for i, d := range docs {
		local := d - base
		if local >= numDocs {
			continue
		}
		score := 0.0
		if a := s.acc[local]; a > 0 && inv[local] > 0 {
			score = a * inv[local] / s.wq
		}
		out[i] = Result{Doc: d, Score: score}
	}
}

// LessResult is the ranking's order, worst first: a lower score is less, and
// of equal scores the higher document id is less. It is the tie rule of every
// top-k selection in the system — the kernel's, and the receptionist's merge
// of librarian rankings — so a federation breaks ties as one index does.
func LessResult(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}
