package core

import "teraphim/internal/search"

// This file holds the names only the benchmark (benchmark/probes.go) still
// calls. Its files are kept as they are between benchmark changes, so the
// names stay here until it drops them. Nothing else may call them.

// RankGroupsEval is RankGroups; the evaluator is ignored, as the exact
// kernel is the only one.
func (g *GroupedIndex) RankGroupsEval(s *search.Scratch, query string, kPrime int, _ search.Evaluator) ([]uint32, search.Stats, error) {
	return g.RankGroups(s, query, kPrime)
}
