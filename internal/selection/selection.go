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
	"slices"
	"sort"

	"teraphim/internal/intern"
)

// belief is CORI's default belief floor: the score a collection gets for a
// term it does not hold at all.
const belief = 0.4

// Vocabulary is the receptionist's one table of term statistics, merged
// from every collection's vocabulary: a row per term of its term table
// holding its global f_t (summed over the collections), its collection
// frequency cf_t (CORI's count of the collections holding it) and each
// collection's own f_t, all in one flat slice. Global term weights, CV's eligibility test and CORI selection
// read it; a vocabulary delta would update its rows. Fill it with Add, then
// hand it to NewIndex, after which it is read-only and safe for concurrent
// use.
type Vocabulary struct {
	terms *intern.Table // term r's row is row r
	cells []uint32      // row r is cells[r·width : (r+1)·width]
	width int           // 2 + the number of collections
}

// NewVocabulary returns an empty table over n collections.
func NewVocabulary(n int) *Vocabulary {
	return &Vocabulary{terms: intern.New(0, 0), width: n + 2}
}

// Add records that collection c holds term in ft of its documents.
func (v *Vocabulary) Add(c int, term string, ft uint32) {
	r, added := v.terms.Intern(term)
	if added {
		v.cells = append(v.cells, make([]uint32, v.width)...)
	}
	row := v.cells[int(r)*v.width:][:v.width]
	if row[2+c] == 0 && ft > 0 {
		row[1]++
	}
	row[0] += ft
	row[2+c] = ft
}

// Row returns term's row — its global f_t, cf_t, then each collection's f_t,
// in collection order — or nil when no collection listed it. The row is
// shared and must not be modified.
func (v *Vocabulary) Row(term string) []uint32 {
	r, ok := v.terms.Lookup(term)
	if !ok {
		return nil
	}
	return v.cells[int(r)*v.width:][:v.width:v.width]
}

// Len returns the number of terms in the table and the bytes of their text.
func (v *Vocabulary) Len() (terms, termBytes int) { return v.terms.Len(), v.terms.Bytes() }

// Index is an immutable collection-selection index: per-collection df
// normalisers over a Vocabulary, precomputed once so per-query scoring is
// one table lookup per term. Build one with NewIndex; it is safe for
// concurrent use.
type Index struct {
	names []string
	vocab *Vocabulary
	// denom[i] = 50 + 150·cw_i/avg_cw is the CORI df normaliser, with the
	// collection "word count" cw_i proxied by Σ_t df_i(t) — the only mass
	// statistic the vocabulary exchange carries.
	denom []float64
	// logC1 caches log(C+1.0), the denominator of the scaled idf term.
	logC1 float64
}

// NewIndex builds the selection index of the collections named names over
// their merged vocabulary v, whose collection numbering names follows, and
// freezes v: it must not be added to afterwards.
func NewIndex(names []string, v *Vocabulary) *Index {
	v.cells = slices.Clone(v.cells) // without the slack Add's appends left
	v.terms.Seal()
	v.terms.Index()
	ix := &Index{names: names, vocab: v, denom: make([]float64, len(names))}
	var totalCW float64
	cw := make([]float64, len(names))
	for r := 0; r < len(v.cells); r += v.width {
		for i, df := range v.cells[r+2 : r+v.width] {
			cw[i] += float64(df)
		}
	}
	for _, w := range cw {
		totalCW += w
	}
	avgCW := 1.0
	if len(names) > 0 && totalCW > 0 {
		avgCW = totalCW / float64(len(names))
	}
	for i := range names {
		ix.denom[i] = 50 + 150*cw[i]/avgCW
	}
	ix.logC1 = math.Log(float64(len(names)) + 1.0)
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
	rows := ix.rows(terms)
	if len(rows) == 0 {
		for i := range scores {
			scores[i] = belief
		}
		return scores
	}
	c := float64(len(ix.names))
	for _, row := range rows {
		idf := math.Log((c+0.5)/float64(row[1])) / ix.logC1
		for i := range scores {
			df := float64(row[2+i])
			tf := df / (df + ix.denom[i])
			scores[i] += belief + (1-belief)*tf*idf
		}
	}
	n := float64(len(rows))
	for i := range scores {
		scores[i] /= n
	}
	return scores
}

// rows deduplicates terms, drops those no collection holds, and returns the
// survivors' rows in term order (a deterministic summation order).
func (ix *Index) rows(terms []string) [][]uint32 {
	sorted := slices.Clone(terms)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	rows := make([][]uint32, 0, len(sorted))
	for _, t := range sorted {
		if row := ix.vocab.Row(t); row != nil && row[1] > 0 {
			rows = append(rows, row)
		}
	}
	return rows
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
