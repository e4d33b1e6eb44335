package core

import (
	"errors"
	"time"
)

// ErrSelectionNeedsVocabulary is returned by a TopR query (or
// SelectLibrarians) before SetupVocabulary has run: without per-librarian
// term statistics there is nothing to rank collections by.
var ErrSelectionNeedsVocabulary = errors.New("core: top-R selection requires SetupVocabulary")

// selectTopR narrows a candidate librarian set to the query's top-R by CORI
// score. candidates is the mode's own eligible set as indexes into fed.libs
// (nil means every librarian); the result is their names in global-numbering
// order. The time spent ranking collections is charged to the analyze stage
// — it is central pre-contact work, exactly like global weighting.
//
// Selection state rides the vocabulary snapshot: callers pass the vocabState
// they already loaded so weighting, eligibility and selection agree even if
// a setup re-run lands mid-query. e.topR must be > 0 (callers gate on it).
func (e *exec) selectTopR(trace *Trace, vs *vocabState, terms []string, candidates []int) ([]string, error) {
	start := time.Now()
	if vs == nil || vs.sel == nil {
		return nil, ErrSelectionNeedsVocabulary
	}
	pool := len(candidates)
	if candidates == nil {
		pool = len(e.fed.libs)
	}
	picked := vs.sel.Top(terms, candidates, e.topR)
	names := make([]string, len(picked))
	for i, idx := range picked {
		names[i] = e.fed.libs[idx].name
	}
	trace.LibrariansSelected = len(names)
	trace.Stages.Analyze += time.Since(start)
	if m := e.pool.metrics; m != nil {
		m.selectionQueries.Inc()
		// Skipped counts candidates that selection ranked out — librarians a
		// mode's own eligibility filter already dropped are not re-counted.
		if skipped := pool - len(names); skipped > 0 {
			m.selectionSkipped.Add(uint64(skipped))
		}
	}
	return names, nil
}
