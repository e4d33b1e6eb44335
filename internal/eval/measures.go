package eval

// Additional standard effectiveness measures beyond the paper's two
// headline numbers, for users evaluating their own collections with
// cmd/evalrun.

// AveragePrecision computes non-interpolated average precision (the
// per-query component of MAP): the mean of precision values at each
// relevant document retrieved, divided by the total number of relevant
// documents.
func AveragePrecision(qrels *Qrels, query string, run Run) float64 {
	totalRel := qrels.NumRelevant(query)
	if totalRel == 0 {
		return 0
	}
	var sum float64
	found := 0
	for i, doc := range run {
		if qrels.IsRelevant(query, doc) {
			found++
			sum += float64(found) / float64(i+1)
		}
	}
	return sum / float64(totalRel)
}

// RPrecision computes precision at rank R, where R is the number of
// relevant documents for the query.
func RPrecision(qrels *Qrels, query string, run Run) float64 {
	r := qrels.NumRelevant(query)
	if r == 0 {
		return 0
	}
	return PrecisionAt(qrels, query, run, r)
}

// FullSummary extends Summary with MAP and R-precision.
type FullSummary struct {
	Summary
	MAP        float64 // mean average precision, percent
	RPrecision float64 // mean R-precision, percent
}

// EvaluateFull scores runs with the full measure set. Query-set semantics
// follow Evaluate (the run file defines the evaluated queries).
func EvaluateFull(qrels *Qrels, runs map[string]Run, depth, topK int) FullSummary {
	full := FullSummary{Summary: Evaluate(qrels, runs, depth, topK)}
	if full.Queries == 0 {
		return full
	}
	var sumAP, sumRP float64
	for query, run := range runs {
		if qrels.NumRelevant(query) == 0 {
			continue
		}
		if len(run) > depth {
			run = run[:depth]
		}
		sumAP += AveragePrecision(qrels, query, run)
		sumRP += RPrecision(qrels, query, run)
	}
	full.MAP = 100 * sumAP / float64(full.Queries)
	full.RPrecision = 100 * sumRP / float64(full.Queries)
	return full
}
