package search

// This file holds the names only the benchmark's kernel probe
// (benchmark/probes.go) still calls. That probe predates the one ranking
// kernel and times "each evaluator"; the benchmark's files are kept as they
// are between benchmark changes, so the names stay here until it drops them.
// Nothing else may call them.

// Evaluator names a ranking algorithm the kernel probe asks for. The exact
// kernel is the only one and answers every value, so the probe's
// rank_us_maxscore and rank_us_wand metrics time the exact kernel too.
type Evaluator uint8

// The evaluator names the kernel probe loops over.
const (
	EvalExact Evaluator = iota
	EvalMaxScore
	EvalWAND
)

// String returns the name the probe's metric carries; any other value is
// "exact", which is what ranks it.
func (e Evaluator) String() string {
	switch e {
	case EvalMaxScore:
		return "maxscore"
	case EvalWAND:
		return "wand"
	}
	return "exact"
}

// RankWithEval is RankParts over the engine's collection on a caller-owned
// Scratch; the evaluator is ignored.
func (e *Engine) RankWithEval(s *Scratch, query string, k int, weights map[string]float64, _ Evaluator) ([]Result, Stats, error) {
	return RankParts(nil, s, []Part{{Index: e.ix}}, e.analyzer, query, k, weights)
}

// ScoreDocsWith is ScoreParts over the engine's collection on a caller-owned
// Scratch, every nominated document in request order.
func (e *Engine) ScoreDocsWith(s *Scratch, query string, docs []uint32, weights map[string]float64) ([]Result, Stats, error) {
	return ScoreParts(s, []Part{{Index: e.ix}}, e.analyzer, query, docs, weights, 0)
}
