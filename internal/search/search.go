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
// A collection may be several indexes tiled over one document-id space (a
// segmented librarian): RankParts, ScoreParts and BooleanParts analyse the
// query once with the analyser the caller owns, resolve each term once per
// part, then evaluate it over every part into one result. They are the only
// evaluation entry points; a single index is the one-part case, and Engine
// is that case as a handle.
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
// order plus the work the evaluation performed. The one-collection handle's
// Rank and ScoreDocs return it; RankParts and ScoreParts keep the flat form
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

// Part is one index of a collection tiled over a global document-id space:
// Base is the global id of its local document 0. The kernel's unit is the
// part; the analyser belongs to whoever owns the text, and every part of a
// collection was indexed with it.
type Part struct {
	Index *index.Index
	Base  uint32
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

// prepare analyses query once with a and resolves it in s for every part
// to evaluate: s.qterms in first-appearance order with f_qt and w_qt, s.ents
// each term's dictionary entry in each part, and s.wq = W_q. A term is looked
// up once per part, and the f_t sums, the lists and the cursors all read its
// entry. With weights nil a term's weight comes from f_t summed over parts
// and N their total (MS/CN); otherwise weights is authoritative (CV), terms
// absent from it weigh 0 and only terms of positive weight are looked up.
// W_q sums in query order, never map order, so every evaluator of a query —
// the mono server and each CV librarian — gets the bitwise-same norm; ULP
// wobble would reorder tied documents across collections. A zero norm is
// taken as 1.
func (s *Scratch) prepare(parts []Part, a *textproc.Analyzer, query string, weights map[string]float64) error {
	for term, w := range weights {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("%w: %q weighs %v", ErrInvalidWeight, term, w)
		}
	}
	parseQueryInto(s, a, query)
	nq := len(s.qterms)
	if nq == 0 {
		return ErrEmptyQuery
	}
	s.ents = slices.Grow(s.ents[:0], nq*len(parts))[:nq*len(parts)]
	var numDocs uint32
	for _, p := range parts {
		numDocs += p.Index.NumDocs()
	}
	var sum float64
	for i := range s.qterms {
		qt := &s.qterms[i]
		if weights != nil {
			qt.wqt = weights[qt.term]
		}
		var ft uint32
		for pi, p := range parts {
			var e index.Entry
			if weights == nil || qt.wqt > 0 {
				e = p.Index.Lookup(qt.term)
			}
			s.ents[pi*nq+i] = e
			ft += e.FT()
		}
		if weights == nil {
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

// RankParts ranks query over parts as one collection: analysed with a and
// prepared once, every part offering its candidates (ids offset by its base)
// to one top-k selector, so a later part starts from the threshold earlier
// parts set and ties break by ascending global id as on a single index.
// Stats sum every part's work. A nil ctx skips the cancellation checks
// entirely.
func RankParts(ctx context.Context, s *Scratch, parts []Part, a *textproc.Analyzer, query string, k int, weights map[string]float64) ([]Result, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, fmt.Errorf("search: k must be positive, got %d", k)
	}
	if err := s.prepare(parts, a, query, weights); err != nil {
		return nil, stats, err
	}
	sel := NewTopK(k, LessResult, s.heap)
	var err error
	for pi, p := range parts {
		if err = p.rankPrepared(ctx, s, s.ents[pi*len(s.qterms):], &sel, &stats); err != nil {
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
// s over this part term at a time, through ents, the part's entries of the
// query's terms in query order, every posting of every list into flat accumulators, offers
// every scored document to sel with its id offset by the part's base, and
// adds its work to stats.
func (p Part) rankPrepared(ctx context.Context, s *Scratch, ents []index.Entry, sel *TopK[Result], stats *Stats) error {
	stats.TermsLooked += len(s.qterms)
	s.reset(p.Index.NumDocs())
	acc, touched, n := s.acc[:p.Index.NumDocs()], s.touched[:cap(s.touched)], 0
	for i := range s.qterms {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		qt := &s.qterms[i]
		if qt.wqt <= 0 || !p.Index.Open(&s.cur, ents[i]) {
			continue // zero weight, or in the weight map but not this part
		}
		stats.ListsFetched++
		stats.IndexBytesRead += s.cur.ListBytes()
		// First touch by conditional move, not a coin-toss branch: d always
		// takes the next touched slot, kept only if its accumulator was zero.
		for blk := s.cur.NextBlock(); blk != nil; blk = s.cur.NextBlock() {
			for _, post := range blk {
				d := post.Doc
				if int(d) >= len(acc) {
					continue // corrupt list; flat accumulators cannot hold it
				}
				a := acc[d]
				touched[n] = d
				if a == 0 {
					n++
				}
				acc[d] = a + qt.wqt*logF1(post.FDT)
			}
		}
		s.touched = touched[:n]
		stats.PostingsDecoded += s.cur.DecodedPostings
	}
	stats.CandidateDocs += len(s.touched)
	s.offerTouched(sel, p.Index.InvDocWeights(), p.Base)
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

// ScoreParts scores the nominated docs, ids in the space parts tile, under
// query analysed with a: the query is prepared once and each part scores the
// nominated documents it holds, decoding only the blocks of each list its
// skips lead to — the librarian-side fast path of the Central Index
// methodology. With k zero every nominated document is
// returned in request order; otherwise the k best, best first, ties by
// ascending id. A nominated document no part holds is an error, reported
// only after an unindexable query had its chance to return ErrEmptyQuery.
func ScoreParts(s *Scratch, parts []Part, a *textproc.Analyzer, query string, docs []uint32, weights map[string]float64, k int) ([]Result, Stats, error) {
	var stats Stats
	if err := s.prepare(parts, a, query, weights); err != nil {
		return nil, stats, err
	}
	out := make([]Result, len(docs))
	var total uint32
	for pi, p := range parts {
		p.scorePrepared(s, s.ents[pi*len(s.qterms):], docs, out, &stats)
		total += p.Index.NumDocs()
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
// the query prepared in s and through ents, the part's entries of its terms,
// the docs that fall in this part's range — ids in a space where its
// document 0 is its base — writing out[i] for docs[i] and adding its work to
// stats. Slots of documents outside the range are left alone, and with none
// inside it no list is touched.
func (p Part) scorePrepared(s *Scratch, ents []index.Entry, docs []uint32, out []Result, stats *Stats) {
	base, numDocs := p.Base, p.Index.NumDocs()
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
		if qt.wqt <= 0 || !p.Index.Open(&s.cur, ents[i]) {
			continue
		}
		stats.ListsFetched++
		stats.IndexBytesRead += s.cur.ListBytes()
		for _, d := range s.docbuf {
			if !s.cur.Advance(d) {
				break
			}
			if post := s.cur.Posting(); post.Doc == d {
				s.add(d, qt.wqt*logF1(post.FDT))
			}
		}
		stats.PostingsDecoded += s.cur.DecodedPostings
	}
	stats.CandidateDocs += len(s.touched)

	inv := p.Index.InvDocWeights()
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
