package search

import (
	"teraphim/internal/index"
	"teraphim/internal/textproc"
)

// Engine is a one-collection handle: an index and the analyser its text was
// indexed with. Each method is one call into the part kernel with the index
// as the one part. Nothing in the system holds one; the librarian and the
// mono server build one on demand for commands, examples and the facade.
type Engine struct {
	ix       *index.Index
	analyzer *textproc.Analyzer
}

// NewEngine pairs an index with the analysis pipeline used at build time.
func NewEngine(ix *index.Index, analyzer *textproc.Analyzer) *Engine {
	return &Engine{ix: ix, analyzer: analyzer}
}

// Index exposes the underlying index (read-only usage expected).
func (e *Engine) Index() *index.Index { return e.ix }

// Analyzer exposes the engine's analysis pipeline so other components (a
// receptionist, an evaluation harness) can analyse queries identically.
func (e *Engine) Analyzer() *textproc.Analyzer { return e.analyzer }

// Rank is RankParts over the collection on a pooled Scratch: the top k
// documents in decreasing score order. If weights is nil the engine derives
// local weights (MS and CN behaviour); otherwise the supplied global weights
// are used verbatim (CV behaviour) and terms absent from weights are skipped.
func (e *Engine) Rank(query string, k int, weights map[string]float64) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := RankParts(nil, s, []Part{{Index: e.ix}}, e.analyzer, query, k, weights)
	return Ranking{Results: results, Stats: stats}, err
}

// ScoreDocs is ScoreParts over the collection on a pooled Scratch, every
// nominated document returned in the order requested (score 0 if no query
// term matches).
func (e *Engine) ScoreDocs(query string, docs []uint32, weights map[string]float64) (Ranking, error) {
	s := GetScratch()
	defer s.Release()
	results, stats, err := ScoreParts(s, []Part{{Index: e.ix}}, e.analyzer, query, docs, weights, 0)
	return Ranking{Results: results, Stats: stats}, err
}

// Boolean is BooleanParts over the collection: the documents matching the
// Boolean expression, ascending.
func (e *Engine) Boolean(expr string) ([]uint32, Stats, error) {
	return BooleanParts([]Part{{Index: e.ix}}, e.analyzer, expr)
}
