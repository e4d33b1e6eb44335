package search

import (
	"context"
	"math"
	"slices"
)

// This file holds the document-at-a-time machinery shared by the rank-safe
// dynamic-pruning evaluators, plus the MaxScore evaluator itself (the WAND
// variant lives in wand.go).
//
// Both evaluators prune with exact per-list score caps: no posting of term
// t can contribute more than cap_t = w_qt·log(MaxFDT_t+1), because logF1 is
// monotone and IEEE multiplication by the positive w_qt preserves order —
// the comparison is against the very float64s the exact kernel produces,
// not a mathematical idealisation. A document skipped because its summed
// caps cannot reach the current top-k threshold θ therefore provably cannot
// displace any retained answer, which is what makes the pruning rank-safe.
//
// Two details keep the output bit-identical to exhaustive evaluation rather
// than merely equivalent:
//
//   - Contributions of a scored candidate are buffered per query term and
//     summed in query-appearance order — the order the exact kernel's
//     term-at-a-time accumulators add them — and the final normalisation is
//     the same acc·(1/W_d)/W_q expression. Identical operands in identical
//     order give identical float64s.
//   - Cap-sum bounds are compared against θ after multiplying by boundSlack
//     (> 1), so a candidate is only skipped when its bound is below θ by
//     more than the worst-case rounding drift of the bound arithmetic
//     itself. Candidates with true score equal to θ are never pruned —
//     necessary because the selector admits an equal-score candidate with a
//     lower document id.

// boundSlack absorbs the rounding drift of cap summation and scaling:
// bounds are compared as bound·boundSlack < θ, so only candidates below the
// threshold by more than ~1e-9 relative are skipped. The drift of summing a
// query's worth of terms is orders of magnitude below that; the slack only
// costs scoring a few near-threshold candidates that exhaustive evaluation
// would have scored anyway.
const boundSlack = 1 + 1e-9

// ctxCheckInterval is how many document-at-a-time iterations run between
// cancellation checks, mirroring the exact kernel's between-lists checks.
const ctxCheckInterval = 256

// docExhausted marks a live term whose cursor has no postings left; the
// entry is removed at the next compaction.
const docExhausted = ^uint32(0)

// liveTerm is the dynamic-pruning state of one matched query term: which
// query term it is, which open cursor walks its list, the list's exact
// contribution cap, and the cursor's current posting.
type liveTerm struct {
	qi  int     // index into Scratch.qterms (query-appearance order)
	ci  int     // index into Scratch.curs
	cap float64 // w_qt·log(MaxFDT+1): no posting can contribute more
	doc uint32  // current posting's document, docExhausted when drained
	fdt uint32  // current posting's f_dt
}

// cmpLiveCap orders live terms by ascending cap, ties by query position —
// the MaxScore partition order. Package-level so sorting never allocates a
// capturing closure.
func cmpLiveCap(a, b liveTerm) int {
	switch {
	case a.cap < b.cap:
		return -1
	case a.cap > b.cap:
		return 1
	case a.qi < b.qi:
		return -1
	case a.qi > b.qi:
		return 1
	}
	return 0
}

// cmpLiveDoc orders live terms by ascending current document, ties by query
// position — the WAND pivot order.
func cmpLiveDoc(a, b liveTerm) int {
	switch {
	case a.doc < b.doc:
		return -1
	case a.doc > b.doc:
		return 1
	case a.qi < b.qi:
		return -1
	case a.qi > b.qi:
		return 1
	}
	return 0
}

// daatOpen opens one cursor per positive-weight query term present in the
// index and primes s.live with each list's first posting and cap. List-level
// accounting (lists fetched, bytes touched) happens here, identically to the
// exact kernel's per-list charges. Returns how many cursors were opened so
// the caller can collect their DecodedPostings afterwards.
func (e *Engine) daatOpen(s *Scratch, stats *Stats) int {
	s.ensureCursors(len(s.qterms))
	s.live = s.live[:0]
	opened := 0
	for i := range s.qterms {
		qt := &s.qterms[i]
		if qt.wqt <= 0 {
			continue
		}
		c := &s.curs[opened]
		if !e.ix.OpenCursor(c, qt.term) {
			continue // term in the weight map but not this collection
		}
		stats.ListsFetched++
		stats.IndexBytesRead += c.ListBytes()
		opened++
		if !c.Next() {
			continue // immediately-corrupt list: nothing to evaluate
		}
		p := c.Posting()
		s.live = append(s.live, liveTerm{
			qi:  i,
			ci:  opened - 1,
			cap: qt.wqt * logF1(e.ix.MaxFDT(qt.term)),
			doc: p.Doc,
			fdt: p.FDT,
		})
	}
	return opened
}

// compactLive drops exhausted entries in place, preserving order.
func compactLive(live []liveTerm) []liveTerm {
	kept := live[:0]
	for i := range live {
		if live[i].doc != docExhausted {
			kept = append(kept, live[i])
		}
	}
	return kept
}

// scoreCandidate folds the contributions gathered in s.contrib into one
// accumulator in query-appearance order — the exact kernel's summation
// order, so the float64 is bit-identical — clears the buffer, and offers
// the document under its global id gd. iw zero (W_d = 0) skips the offer
// exactly as the exact kernel does.
func scoreCandidate(s *Scratch, sel *TopK[Result], gd uint32, iw, wq float64) {
	var acc float64
	for i := range s.contrib {
		c := s.contrib[i]
		if c == 0 {
			continue
		}
		s.contrib[i] = 0
		acc += c
	}
	if iw == 0 {
		return
	}
	offer(sel, Result{Doc: gd, Score: acc * iw / wq})
}

// threshold is θ, the score a candidate must reach to enter sel: the root's
// once sel is full — set by earlier parts too — and -∞ while it fills. The
// root only ever improves, so re-reading it after an offer never lowers θ.
func threshold(sel *TopK[Result]) float64 {
	if len(sel.h) < sel.k {
		return math.Inf(-1)
	}
	return sel.h[0].Score
}

// clearContrib zeroes the contribution buffer of an abandoned candidate.
func clearContrib(s *Scratch) {
	for i := range s.contrib {
		s.contrib[i] = 0
	}
}

// rankDynamic is rankPrepared under one of the dynamic-pruning evaluators,
// with postings accounting summed over every open cursor.
func (e *Engine) rankDynamic(ctx context.Context, s *Scratch, base uint32, sel *TopK[Result], eval Evaluator, stats *Stats) error {
	opened := e.daatOpen(s, stats)
	var err error
	if eval == EvalMaxScore {
		err = e.runMaxScore(ctx, s, sel, base, stats)
	} else {
		err = e.runWAND(ctx, s, sel, base, stats)
	}
	for i := 0; i < opened; i++ {
		stats.PostingsDecoded += s.curs[i].DecodedPostings
	}
	return err
}

// runMaxScore is the MaxScore evaluator. Live terms are sorted by ascending
// cap; the leading lists whose cumulative caps cannot reach θ even under
// the most favourable document normalisation are non-essential: they never
// generate candidates, only confirm them. Candidates are the union of the
// essential lists' documents; each is bounded (essential contributions plus
// the non-essential caps, scaled by the candidate's own 1/W_d) before any
// non-essential list is probed, and the bound re-tightens after every
// probe, abandoning the candidate the moment it can no longer reach θ.
// Probes use the cursors' skip structure (Advance), so a non-essential
// list's postings between candidates are never decoded.
func (e *Engine) runMaxScore(ctx context.Context, s *Scratch, sel *TopK[Result], base uint32, stats *Stats) error {
	live := s.live
	if len(live) == 0 {
		return nil
	}
	slices.SortFunc(live, cmpLiveCap)

	inv, wq := e.ix.InvDocWeights(), s.wq
	scaleMax := e.ix.MaxInvDocWeight() / wq
	numDocs := e.ix.NumDocs()
	s.contrib = ensureFloats(s.contrib, len(s.qterms))
	s.prefix = ensureFloats(s.prefix, len(live))

	// prefix[i] = Σ caps of live[0..i]; rebuilt whenever the live set
	// shrinks. The essential boundary is re-derived from it (and the
	// current θ) every iteration — an O(terms) scan.
	sum := 0.0
	for i := range live {
		sum += live[i].cap
		s.prefix[i] = sum
	}

	theta := threshold(sel)
	steps := 0
	for {
		if ctx != nil {
			if steps++; steps&(ctxCheckInterval-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
		ness := 0
		for ness < len(live) && s.prefix[ness]*scaleMax*boundSlack < theta {
			ness++
		}
		if ness >= len(live) {
			break // every list is non-essential: no document can beat θ
		}

		// Next candidate: the smallest current document of any essential list.
		d := live[ness].doc
		for i := ness + 1; i < len(live); i++ {
			if live[i].doc < d {
				d = live[i].doc
			}
		}

		// Gather the essential contributions at d.
		partial := 0.0
		for i := ness; i < len(live); i++ {
			lt := &live[i]
			if lt.doc != d {
				continue
			}
			c := s.qterms[lt.qi].wqt * logF1(lt.fdt)
			s.contrib[lt.qi] = c
			partial += c
		}

		compact := false
		evaluated := false
		if d < numDocs {
			iw := inv[d]
			scale := iw / wq
			rem := 0.0
			if ness > 0 {
				rem = s.prefix[ness-1]
			}
			if (partial+rem)*scale*boundSlack >= theta {
				// Probe non-essential lists in descending-cap order,
				// re-tightening the bound as caps become exact contributions.
				reachable := true
				for i := ness - 1; i >= 0; i-- {
					lt := &live[i]
					if lt.doc < d {
						c := &s.curs[lt.ci]
						if c.Advance(d) {
							p := c.Posting()
							lt.doc, lt.fdt = p.Doc, p.FDT
						} else {
							lt.doc = docExhausted
							compact = true
						}
					}
					if lt.doc == d {
						cb := s.qterms[lt.qi].wqt * logF1(lt.fdt)
						s.contrib[lt.qi] = cb
						partial += cb
					}
					rem = 0.0
					if i > 0 {
						rem = s.prefix[i-1]
					}
					if (partial+rem)*scale*boundSlack < theta {
						reachable = false
						break
					}
				}
				if reachable {
					stats.CandidateDocs++
					evaluated = true
					scoreCandidate(s, sel, base+d, iw, wq)
					theta = threshold(sel)
				}
			}
		}
		if !evaluated {
			clearContrib(s)
		}

		// Advance every essential cursor consumed at d (also past a corrupt
		// d ≥ numDocs, so the scan always makes progress).
		for i := ness; i < len(live); i++ {
			lt := &live[i]
			if lt.doc != d {
				continue
			}
			c := &s.curs[lt.ci]
			if c.Next() {
				p := c.Posting()
				lt.doc, lt.fdt = p.Doc, p.FDT
			} else {
				lt.doc = docExhausted
				compact = true
			}
		}
		if compact {
			live = compactLive(live)
			s.live = live
			if len(live) == 0 {
				break
			}
			sum := 0.0
			for i := range live {
				sum += live[i].cap
				s.prefix[i] = sum
			}
		}
	}
	return nil
}
