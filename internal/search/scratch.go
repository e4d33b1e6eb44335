package search

import (
	"math"
	"sync"

	"teraphim/internal/index"
)

// logTableSize bounds the memoised log(f+1) table. Within-document and
// within-query frequencies are small integers (MG truncates term buffers and
// documents are finite), so in practice every lookup hits the table; larger
// frequencies fall back to math.Log and remain bit-identical.
const logTableSize = 1024

var logTable = func() [logTableSize]float64 {
	var t [logTableSize]float64
	for i := range t {
		t[i] = math.Log(float64(i) + 1)
	}
	return t
}()

// logF1 returns log(f+1), memoised for small f. The table entries are the
// very values math.Log would produce, so memoisation never changes a score.
func logF1(f uint32) float64 {
	if f < logTableSize {
		return logTable[f]
	}
	return math.Log(float64(f) + 1)
}

// queryTerm is one unique query term with its frequency and resolved weight.
type queryTerm struct {
	term string
	fqt  uint32
	wqt  float64
}

// Scratch holds the reusable per-query state of the ranked-evaluation
// kernel: the prepared query, flat accumulators sized to the collection,
// decode and tokenizer buffers, a pooled term cursor, and top-k heap
// backing. One Scratch serves one query at a time; recycle it through
// GetScratch/Release (a sync.Pool, safe under the connection Pool's
// concurrent sessions — each Get hands out exclusive ownership) or own one
// per session.
//
// An accumulator is live iff non-zero: each contribution w_qt·log(f_dt+1)
// is positive, as w_qt ≤ 0 is skipped, prepare refuses NaN and infinities,
// and f_dt ≥ 1 (a positive weight times log 2 > ½ cannot round to zero).
type Scratch struct {
	acc     []float64 // accumulator per document; live iff non-zero
	touched []uint32  // live documents in first-touch order; capacity len(acc)+1

	raw    []string // tokenizer buffer
	terms  []string // analysed-terms buffer
	qterms []queryTerm
	wq     float64 // W_q of the prepared query (see prepare)

	heap   []Result // top-k selector backing
	docbuf []uint32 // ScoreDocs sorted-target buffer

	cur index.TermCursor // reusable block-decoding cursor

	// Document-at-a-time state for the dynamic-pruning evaluators
	// (MaxScore/WAND), which hold one open cursor per matched term instead
	// of reading lists to the end one at a time. All grow-only, so steady
	// state stays allocation-free.
	curs    []index.TermCursor // one cursor per matched term
	live    []liveTerm         // per-matched-term pruning state
	contrib []float64          // per-qterm contributions of one candidate, appearance order
	prefix  []float64          // cumulative cap sums over the sorted live terms
}

// ensureCursors grows s.curs to hold at least n cursors, carrying the old
// cursors (and their decode buffers) over.
func (s *Scratch) ensureCursors(n int) {
	if len(s.curs) < n {
		curs := make([]index.TermCursor, n)
		copy(curs, s.curs)
		s.curs = curs
	}
}

// ensureFloats returns buf grown to exactly n zeroed entries.
func ensureFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NewScratch returns an empty Scratch; its buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch borrows a Scratch from the shared pool. The caller owns it
// exclusively until Release.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the Scratch to the shared pool. The Scratch must not be
// used afterwards, and no slice written into it may escape (RankParts and
// ScoreParts copy results out for exactly that reason).
func (s *Scratch) Release() { scratchPool.Put(s) }

// reset prepares the accumulators for a query over numDocs documents,
// zeroing what the last evaluation touched (one clear past an eighth of
// them). touched has room for one slot past any live length.
func (s *Scratch) reset(numDocs uint32) {
	if uint32(len(s.acc)) < numDocs {
		s.acc = make([]float64, numDocs)
		s.touched = make([]uint32, 0, numDocs+1)
		return
	}
	if len(s.touched) > len(s.acc)/8 {
		clear(s.acc)
	} else {
		for _, d := range s.touched {
			s.acc[d] = 0
		}
	}
	s.touched = s.touched[:0]
}

// add accumulates w into doc's accumulator, creating it if this is the
// first contribution of the query. w must be positive.
func (s *Scratch) add(doc uint32, w float64) {
	a := s.acc[doc]
	if a == 0 {
		s.touched = append(s.touched, doc)
	}
	s.acc[doc] = a + w
}
