// Package oracle is the reference every ranking differential test compares
// against: the cosine measure evaluated by brute force over analysed text.
// It shares no code with the index, the codec or the search kernel, so a
// fault in any of them cannot hide in the reference as well.
package oracle

import "math"

// Scores returns the cosine similarity of query with every document of the
// collection docs, both given as analysed terms, indexed like docs:
//
//	C(q,d) = Σ_t w_qt·w_dt / (W_q·W_d)
//	w_qt = ln(f_qt+1)·ln(N/f_t+1), w_dt = ln(f_dt+1)
//
// with N = len(docs) and f_t the number of documents holding t. Query terms
// the collection lacks weigh nothing, and W_q is 1 when no term weighs
// anything. W_d is rounded to float32, as the index stores it, and each
// document's sum runs over the query's terms in the order they first appear.
// A document holding no query term scores 0.
func Scores(docs [][]string, query []string) []float64 {
	ft := make(map[string]int)
	fdt := make([]map[string]int, len(docs))
	wd := make([]float64, len(docs))
	for d, terms := range docs {
		fdt[d] = make(map[string]int)
		var distinct []string
		for _, t := range terms {
			if fdt[d][t] == 0 {
				distinct = append(distinct, t)
				ft[t]++
			}
			fdt[d][t]++
		}
		var sum float64
		for _, t := range distinct {
			w := math.Log(float64(fdt[d][t]) + 1)
			sum += w * w
		}
		wd[d] = float64(float32(math.Sqrt(sum)))
	}

	fqt := make(map[string]int)
	var terms []string
	for _, t := range query {
		if fqt[t] == 0 {
			terms = append(terms, t)
		}
		fqt[t]++
	}
	n := float64(len(docs))
	wqt := make([]float64, len(terms))
	var sum float64
	for i, t := range terms {
		if ft[t] > 0 {
			wqt[i] = math.Log(float64(fqt[t])+1) * math.Log(n/float64(ft[t])+1)
		}
		sum += wqt[i] * wqt[i]
	}
	wq := 1.0
	if sum > 0 {
		wq = math.Sqrt(sum)
	}

	scores := make([]float64, len(docs))
	for d := range docs {
		var dot float64
		for i, t := range terms {
			if f := fdt[d][t]; f > 0 {
				dot += wqt[i] * math.Log(float64(f)+1)
			}
		}
		if dot > 0 {
			scores[d] = dot / (wq * wd[d])
		}
	}
	return scores
}
