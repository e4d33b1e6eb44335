package librarian

import (
	"testing"

	"teraphim/internal/protocol"
	"teraphim/internal/search"
)

// TestEvaluatorWireParity pins the dynamic-pruning evaluators across the
// wire: a RankQuery carrying EvalMaxScore or EvalWAND must return exactly
// the reply the exact evaluator returns — documents, scores and the
// list-level Stats charges — against the corpus as one segment and as three,
// with and without explicit weights.
func TestEvaluatorWireParity(t *testing.T) {
	uni, seg := buildSegmentedPair(t, 120)
	weights := map[string]float64{"whale": 1.2, "reef": 0.8, "storm": 1.5}
	queries := []struct {
		q string
		w map[string]float64
	}{
		{"whale reef storm", nil},
		{"whale reef storm", weights},
		{"compass tide anchor gull", nil},
		{"lantern", nil},
	}
	for _, lib := range []struct {
		name string
		srv  *Librarian
	}{{"uni", uni}, {"seg", seg}} {
		for _, tc := range queries {
			for _, k := range []int{1, 10, 200} {
				exact := rankOf(t, callServer(t, lib.srv, &protocol.RankQuery{
					Query: tc.q, K: uint32(k), Weights: tc.w,
				}))
				for _, eval := range []search.Evaluator{search.EvalMaxScore, search.EvalWAND} {
					got := rankOf(t, callServer(t, lib.srv, &protocol.RankQuery{
						Query: tc.q, K: uint32(k), Weights: tc.w, Evaluator: uint8(eval),
					}))
					label := lib.name + "/" + eval.String() + "/" + tc.q
					assertRankParity(t, label, got, exact)
					for i := range exact.Results {
						if got.Results[i].Score != exact.Results[i].Score {
							t.Fatalf("%s k=%d: rank %d score %.17g, exact %.17g",
								label, k, i, got.Results[i].Score, exact.Results[i].Score)
						}
					}
					if got.Stats.TermsLooked != exact.Stats.TermsLooked ||
						got.Stats.ListsFetched != exact.Stats.ListsFetched ||
						got.Stats.IndexBytesRead != exact.Stats.IndexBytesRead {
						t.Fatalf("%s k=%d: list-level stats %+v, exact %+v",
							label, k, got.Stats, exact.Stats)
					}
				}
			}
		}
	}
}
