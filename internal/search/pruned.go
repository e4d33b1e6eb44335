package search

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"teraphim/internal/index"
	"teraphim/internal/textproc"
)

// PrunedEngine evaluates ranked queries against a frequency-sorted index
// (Persin, Zobel & Sacks-Davis) with per-query thresholding — the §5
// "future work" direction of the paper. Inverted lists are read in
// decreasing-f_dt order and abandoned once the remaining postings cannot
// contribute meaningfully, trading a controlled amount of effectiveness for
// a large reduction in index volume processed.
type PrunedEngine struct {
	fs       *index.FreqSorted
	analyzer *textproc.Analyzer
}

// NewPrunedEngine wraps a frequency-sorted index.
func NewPrunedEngine(fs *index.FreqSorted, analyzer *textproc.Analyzer) *PrunedEngine {
	return &PrunedEngine{fs: fs, analyzer: analyzer}
}

// Thresholds tunes pruning. Both are fractions of the query's largest
// possible single-posting contribution c_max = max_t w_qt·log(maxFDT_t+1):
//
//   - Insert: a posting below Insert·c_max may update an existing
//     accumulator but no longer creates one (bounding accumulator memory).
//   - Add: a posting below Add·c_max ends its list entirely.
//
// Zero thresholds reproduce exact evaluation. Because contributions are
// log-compressed, the smallest possible contribution of a list is
// log(2)/log(maxFDT+1) of its largest — so useful Add thresholds sit above
// that floor (≈0.3–0.5 on this corpus); the f_dt=1 runs they cut hold most
// of each list's postings, which is where Persin et al.'s factor-of-five
// saving comes from.
type Thresholds struct {
	Insert float64
	Add    float64
}

// Rank evaluates a thresholded ranked query, returning the top k documents.
// Scratch state comes from the shared pool; use RankWith to supply your own.
func (e *PrunedEngine) Rank(query string, k int, th Thresholds) (Ranking, error) {
	return e.RankContext(context.Background(), query, k, th)
}

// RankContext is Rank honouring a context, checked between inverted lists
// exactly like Engine.RankContext, so long pruned evaluations stop promptly
// when the caller's deadline passes.
func (e *PrunedEngine) RankContext(ctx context.Context, query string, k int, th Thresholds) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := e.rankWith(ctx, s, query, k, th)
	return Ranking{Results: results, Stats: stats}, err
}

// RankWith is Rank running on a caller-owned Scratch: the same flat
// accumulators, memoised log weights, and non-boxing top-k
// selector as the document-sorted kernel, driving the run-decoded cursor.
func (e *PrunedEngine) RankWith(s *Scratch, query string, k int, th Thresholds) ([]Result, Stats, error) {
	return e.rankWith(nil, s, query, k, th)
}

// rankWith is the shared kernel behind Rank/RankContext/RankWith; a nil ctx
// skips the cancellation checks, as in Engine.rankWith.
func (e *PrunedEngine) rankWith(ctx context.Context, s *Scratch, query string, k int, th Thresholds) ([]Result, Stats, error) {
	var stats Stats
	if k <= 0 {
		return nil, stats, fmt.Errorf("search: k must be positive, got %d", k)
	}
	parseQueryInto(s, e.analyzer, query)
	if len(s.qterms) == 0 {
		return nil, stats, ErrEmptyQuery
	}
	stats.TermsLooked = len(s.qterms)

	// Global query weights from the frequency-sorted index's statistics;
	// contribCap is the largest possible contribution of each term's list.
	var wq2 float64
	matched := 0
	for i := range s.qterms {
		qt := &s.qterms[i]
		ft := e.fs.TermFreq(qt.term)
		if ft == 0 {
			qt.wqt, qt.contribCap = 0, 0
			continue
		}
		matched++
		qt.wqt = CollectionWeight(qt.fqt, ft, e.fs.NumDocs())
		wq2 += qt.wqt * qt.wqt
		qt.contribCap = qt.wqt * logF1(e.fs.MaxFDT(qt.term))
	}
	if matched == 0 {
		return nil, stats, nil
	}
	// Process terms in decreasing contribution capacity, as Persin et al.
	// prescribe, so accumulators are created by the most promising lists.
	// The order must be a deterministic total order: with Insert > 0, which
	// list runs first decides which accumulators exist when later lists may
	// only update existing ones, so any tie-order wobble between equal-cap
	// terms changes the ranking itself. Stable sort plus a term-string
	// tie-break pins it.
	slices.SortStableFunc(s.qterms, func(a, b queryTerm) int {
		switch {
		case a.contribCap > b.contribCap:
			return -1
		case a.contribCap < b.contribCap:
			return 1
		default:
			return strings.Compare(a.term, b.term)
		}
	})
	cMax := s.qterms[0].contribCap

	numDocs := e.fs.NumDocs()
	s.reset(numDocs)
	for i := range s.qterms {
		if ctx != nil && ctx.Err() != nil {
			return nil, stats, ctx.Err()
		}
		qt := &s.qterms[i]
		if qt.wqt <= 0 {
			continue
		}
		if err := e.fs.ResetCursor(&s.fcur, qt.term); err != nil {
			continue
		}
		stats.ListsFetched++
		stats.IndexBytesRead += e.fs.ListBytes(qt.term)
		for {
			fdt, docs, ok := s.fcur.NextRun()
			if !ok {
				break
			}
			contrib := qt.wqt * logF1(fdt)
			if contrib < th.Add*cMax {
				// Runs only get smaller from here: abandon the list.
				break
			}
			// Below the insert threshold only live accumulators grow.
			insert := contrib >= th.Insert*cMax
			for _, d := range docs {
				if d < numDocs && (insert || s.acc[d] != 0) {
					s.add(d, contrib)
				}
			}
		}
		stats.PostingsDecoded += s.fcur.Decoded()
	}
	stats.CandidateDocs = len(s.touched)

	s.wq = math.Sqrt(wq2)
	if s.wq == 0 {
		s.wq = 1
	}
	sel := NewTopK(k, lessResult, s.heap)
	s.offerTouched(&sel, e.fs.InvDocWeights(), 0)
	return s.extract(&sel), stats, nil
}
