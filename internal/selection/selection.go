// Package selection ranks subcollections by their likelihood of holding
// answers for a query, using only the per-librarian term statistics the
// receptionist's merged vocabulary already contains. It implements the
// CORI collection-ranking formula (Callan et al., the selection baseline
// of the federated digital-library literature cited in PAPERS.md): each
// collection is treated as one giant document, term "frequency" is the
// collection's document frequency, and the df-normalising constants take
// the role tf normalisation plays in document ranking.
//
// Scores exist only to order collections for top-R fan-out; they are never
// mixed into document scores, so the receptionist's merge stays exactly
// comparable to full fan-out.
package selection

import (
	"math"
	"sort"
)

// belief is CORI's default belief floor: the score a collection gets for a
// term it does not hold at all.
const belief = 0.4

// Collection is one subcollection's term statistics as the receptionist
// knows them: the librarian's name, its document count, and its document
// frequency per term (the f_t map shipped during SetupVocabulary).
type Collection struct {
	Name string
	Docs uint32
	// DF maps term -> number of the collection's documents containing it.
	// The map is read, never written; callers may share it with other
	// holders (the federation's vocabState does).
	DF map[string]uint32
}

// Index is an immutable collection-selection index: per-collection df
// normalisers and global collection frequencies, precomputed once so
// per-query scoring is a handful of map lookups per (term, collection)
// pair. Build one with New; it is safe for concurrent use.
type Index struct {
	names []string
	df    []map[string]uint32
	// denom[i] = 50 + 150·cw_i/avg_cw is the CORI df normaliser, with the
	// collection "word count" cw_i proxied by Σ_t df_i(t) — the only mass
	// statistic the vocabulary exchange carries.
	denom []float64
	// cf[t] counts collections whose DF contains t (CORI's collection
	// frequency).
	cf map[string]uint32
	// logC1 caches log(C+1.0), the denominator of the scaled idf term.
	logC1 float64
}

// New builds a selection index over the given collections. The order of
// cols fixes the index numbering (callers align it with the federation's
// global librarian numbering). Nil or empty input yields an index that
// selects nothing.
func New(cols []Collection) *Index {
	ix := &Index{
		names: make([]string, len(cols)),
		df:    make([]map[string]uint32, len(cols)),
		denom: make([]float64, len(cols)),
		cf:    make(map[string]uint32),
	}
	var totalCW float64
	cw := make([]float64, len(cols))
	for i, c := range cols {
		ix.names[i] = c.Name
		ix.df[i] = c.DF
		for t, df := range c.DF {
			if df > 0 {
				ix.cf[t]++
				cw[i] += float64(df)
			}
		}
		totalCW += cw[i]
	}
	avgCW := 1.0
	if len(cols) > 0 && totalCW > 0 {
		avgCW = totalCW / float64(len(cols))
	}
	for i := range cols {
		ix.denom[i] = 50 + 150*cw[i]/avgCW
	}
	ix.logC1 = math.Log(float64(len(cols)) + 1.0)
	return ix
}

// Score computes the CORI belief score of every collection for the given
// query terms: score_i = mean_t p(t|c_i) with
//
//	p(t|c_i) = b + (1−b)·T·I
//	T = df_i(t) / (df_i(t) + 50 + 150·cw_i/avg_cw)
//	I = log((C+0.5)/cf_t) / log(C+1.0)
//
// Terms are deduplicated, terms absent from every collection are dropped
// (they cannot discriminate), and the surviving terms are summed in sorted
// order so the floating-point result is bit-identical regardless of the
// caller's term ordering. A query with no surviving terms scores every
// collection at the belief floor.
func (ix *Index) Score(terms []string) []float64 {
	scores := make([]float64, len(ix.names))
	kept := ix.keepTerms(terms)
	if len(kept) == 0 {
		for i := range scores {
			scores[i] = belief
		}
		return scores
	}
	c := float64(len(ix.names))
	for _, t := range kept {
		idf := math.Log((c+0.5)/float64(ix.cf[t])) / ix.logC1
		for i := range scores {
			df := float64(ix.df[i][t])
			tf := df / (df + ix.denom[i])
			scores[i] += belief + (1-belief)*tf*idf
		}
	}
	n := float64(len(kept))
	for i := range scores {
		scores[i] /= n
	}
	return scores
}

// keepTerms deduplicates terms, drops those no collection holds, and sorts
// the survivors (deterministic summation order).
func (ix *Index) keepTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	kept := terms[:0:0]
	for _, t := range terms {
		if !seen[t] && ix.cf[t] > 0 {
			seen[t] = true
			kept = append(kept, t)
		}
	}
	sort.Strings(kept)
	return kept
}

// Top returns the indexes of the top-r collections for the query terms,
// drawn from candidates (nil means every collection), in ascending index
// order. Ranking is by score descending with ties broken by ascending
// index, so the result is deterministic. r <= 0 selects nothing; r >=
// len(candidates) selects every candidate.
func (ix *Index) Top(terms []string, candidates []int, r int) []int {
	if r <= 0 || len(ix.names) == 0 {
		return nil
	}
	if candidates == nil {
		candidates = make([]int, len(ix.names))
		for i := range candidates {
			candidates[i] = i
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	scores := ix.Score(terms)
	ranked := make([]int, len(candidates))
	copy(ranked, candidates)
	sort.SliceStable(ranked, func(a, b int) bool {
		ia, ib := ranked[a], ranked[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return ia < ib
	})
	if r < len(ranked) {
		ranked = ranked[:r]
	}
	out := make([]int, len(ranked))
	copy(out, ranked)
	sort.Ints(out)
	return out
}
