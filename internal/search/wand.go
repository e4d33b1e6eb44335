package search

import (
	"context"
	"slices"
)

// runWAND is the WAND evaluator (Broder et al.'s weak-AND, on the shared
// machinery in maxscore.go). Live terms stay sorted by current document;
// the pivot is the first position whose cumulative caps — every list at or
// before it — could still reach θ under the most favourable normalisation.
// Documents before the pivot provably cannot, so when the leading cursor is
// behind the pivot it skip-seeks straight to it (Advance over the skip
// structure, decoding only the landing block); only when the leading
// cursors all sit on the pivot is a document fully scored. Pruning, scoring
// order, and slack discipline match runMaxScore, so the output is
// bit-identical to exhaustive evaluation.
func (e *Engine) runWAND(ctx context.Context, s *Scratch, sel *TopK[Result], base uint32, stats *Stats) error {
	live := s.live
	if len(live) == 0 {
		return nil
	}
	inv, wq := e.ix.InvDocWeights(), s.wq
	scaleMax := e.ix.MaxInvDocWeight() / wq
	numDocs := e.ix.NumDocs()
	s.contrib = ensureFloats(s.contrib, len(s.qterms))

	slices.SortFunc(live, cmpLiveDoc)
	theta := threshold(sel)
	steps := 0
	for len(live) > 0 {
		if ctx != nil {
			if steps++; steps&(ctxCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		// Pivot selection over the doc-sorted lists.
		p := -1
		capSum := 0.0
		for i := range live {
			capSum += live[i].cap
			if capSum*scaleMax*boundSlack >= theta {
				p = i
				break
			}
		}
		if p < 0 {
			break // all remaining lists together cannot beat θ
		}
		pivot := live[p].doc

		if live[0].doc == pivot {
			// Every list up to p sits on the pivot: score it fully,
			// including any further lists that also reached it.
			for p+1 < len(live) && live[p+1].doc == pivot {
				p++
			}
			if pivot < numDocs {
				stats.CandidateDocs++
				for i := 0; i <= p; i++ {
					lt := &live[i]
					s.contrib[lt.qi] = s.qterms[lt.qi].wqt * logF1(lt.fdt)
				}
				scoreCandidate(s, sel, base+pivot, inv[pivot], wq)
				theta = threshold(sel)
			}
			compact := false
			for i := 0; i <= p; i++ {
				lt := &live[i]
				c := &s.curs[lt.ci]
				if c.Next() {
					np := c.Posting()
					lt.doc, lt.fdt = np.Doc, np.FDT
				} else {
					lt.doc = docExhausted
					compact = true
				}
			}
			if compact {
				live = compactLive(live)
				s.live = live
			}
		} else {
			// Jump the longest pre-pivot list to the pivot: one skip-seek
			// bypasses the most postings, and the next pivot round re-sorts.
			pick, bestFT := -1, uint32(0)
			for i := 0; i < p; i++ {
				if live[i].doc >= pivot {
					break // doc-sorted: the rest already reached the pivot
				}
				if ft := s.curs[live[i].ci].FT(); pick < 0 || ft > bestFT {
					pick, bestFT = i, ft
				}
			}
			lt := &live[pick]
			c := &s.curs[lt.ci]
			if c.Advance(pivot) {
				np := c.Posting()
				lt.doc, lt.fdt = np.Doc, np.FDT
			} else {
				lt.doc = docExhausted
				live = compactLive(live)
				s.live = live
			}
		}
		slices.SortFunc(live, cmpLiveDoc)
	}
	return nil
}
