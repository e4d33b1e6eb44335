package index

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"teraphim/internal/codec"
)

// A GroupSource yields one part of a collection's postings lists in
// ascending term order, each list in group ids: the Central Index
// methodology's grouping of adjacent documents into pseudo-documents.
type GroupSource interface {
	// NextTerm moves to the next list and returns its term, or "" after the
	// last. The current list must have been read by AppendGroups first.
	NextTerm() (string, error)
	// AppendGroups appends the current list's groups, ascending, to dst.
	AppendGroups(dst []Posting) ([]Posting, error)
}

// Groups returns the lists of ix whose terms fall in [from, to) — to == ""
// meaning no upper bound — as a GroupSource in which local document d falls
// in group (base+d)/g. base+NumDocs must not exceed 2³², and g must be ≥ 1.
func (ix *Index) Groups(base, g uint32, from, to string) GroupSource {
	seek := func(t string) int {
		return sort.Search(len(ix.entries), func(i int) bool { return ix.terms.At(uint32(i)) >= t })
	}
	first, end := seek(from), len(ix.entries)
	if to != "" {
		end = seek(to)
	}
	return &indexGroups{ix: ix, base: base, g: g, i: first - 1, end: end}
}

type indexGroups struct {
	ix      *Index
	base, g uint32
	i, end  int // current entry; the entry the source stops before
}

func (s *indexGroups) NextTerm() (string, error) {
	if s.i++; s.i >= s.end {
		return "", nil
	}
	return s.ix.terms.At(uint32(s.i)), nil
}

// AppendGroups decodes the current list after dst and folds it into groups
// in place: each group is written at or before the first of its documents.
func (s *indexGroups) AppendGroups(dst []Posting) ([]Posting, error) {
	start, e := len(dst), &s.ix.entries[s.i]
	list, _, _ := s.ix.list(s.i)
	dst = slices.Grow(dst, int(e.ft))[:start+int(e.ft)]
	if _, err := codec.DecodeList(dst[start:], list, s.ix.numDocs, 0, nil); err != nil {
		return dst[:start], fmt.Errorf("index: term %q: %w", s.ix.terms.At(uint32(s.i)), err)
	}
	if s.g == 1 { // a merge: each document its own group
		for j := start; j < len(dst); j++ {
			dst[j].Doc += s.base
		}
		return dst, nil
	}
	n := start
	for _, p := range dst[start:] {
		if grp := (s.base + p.Doc) / s.g; n > start && dst[n-1].Doc == grp {
			dst[n-1].FDT += p.FDT
		} else {
			dst[n] = Posting{Doc: grp, FDT: p.FDT}
			n++
		}
	}
	return dst[:n], nil
}

// FoldGroups merges srcs — the parts of one collection, in ascending
// document order — term by term, a k-way pass over their dictionaries: for
// each term in lexicographic order it concatenates the parts' groups, summing
// the group two adjacent parts share, and calls emit with the folded list,
// which is valid only during the call. A shared group whose frequencies sum
// past 2³²−1 is an error.
func FoldGroups(srcs []GroupSource, emit func(term string, groups []Posting) error) error {
	heads := make([]string, 0, 8) // on the stack for up to eight parts
	for i, s := range srcs {
		h, err := s.NextTerm()
		if err != nil {
			return fmt.Errorf("index: part %d: %w", i, err)
		}
		heads = append(heads, h)
	}
	list := make([]Posting, 0, 256)
	for {
		term := ""
		for _, h := range heads {
			if h != "" && (term == "" || h < term) {
				term = h
			}
		}
		if term == "" {
			return nil
		}
		list = list[:0]
		for i, s := range srcs {
			if heads[i] != term {
				continue
			}
			start := len(list)
			var err error
			if list, err = s.AppendGroups(list); err != nil {
				return fmt.Errorf("index: part %d: %w", i, err)
			}
			if start > 0 && len(list) > start && list[start].Doc == list[start-1].Doc {
				f := uint64(list[start-1].FDT) + uint64(list[start].FDT)
				if f > math.MaxUint32 {
					return fmt.Errorf("index: part %d: term %q: group %d sums to %d", i, term, list[start].Doc, f)
				}
				list[start-1].FDT = uint32(f)
				list = append(list[:start], list[start+1:]...)
			}
			if heads[i], err = s.NextTerm(); err != nil {
				return fmt.Errorf("index: part %d: %w", i, err)
			}
		}
		if err := emit(term, list); err != nil {
			return err
		}
	}
}

// BuildFromGroups builds the index of numDocs groups whose lists FoldGroups
// folds from srcs. A group's weight and length come from its postings —
// W_g = sqrt(Σ_t log(f_gt+1)²) and Σ_t f_gt — which is what Builder gives a
// document made of the group's terms. terms, termBytes and postings are the
// caller's estimates of the folded index's term count, term bytes and
// postings, 0 where it has none: they size the arenas, which grow by doubling
// past them, and seal trims what they overshoot.
func BuildFromGroups(srcs []GroupSource, numDocs uint32, terms, termBytes, postings int, opts ...BuilderOption) (*Index, error) {
	// A posting takes about a byte, and a list at least one.
	ix := newIndex(numDocs, skipIntervalOf(opts), terms, termBytes, max(postings, terms), 0)
	ix.weights, ix.lens = make([]float32, numDocs), make([]uint32, numDocs)
	sumSq := make([]float64, numDocs)
	err := FoldGroups(srcs, func(term string, groups []Posting) error {
		if err := ix.appendList(term, groups); err != nil {
			return fmt.Errorf("index: term %q: %w", term, err)
		}
		for _, p := range groups {
			if p.FDT < uint32(len(logSq)) {
				sumSq[p.Doc] += logSq[p.FDT]
			} else {
				wt := math.Log(float64(p.FDT) + 1)
				sumSq[p.Doc] += wt * wt
			}
			ix.lens[p.Doc] += p.FDT
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for d, s := range sumSq {
		ix.weights[d] = float32(math.Sqrt(s))
	}
	return ix.seal(), nil
}

// logSq[f] is log(f+1)², the weight term of a group frequency f: most
// frequencies are small, and the table spares BuildFromGroups a logarithm
// per posting without changing a bit of the result.
var logSq = func() (t [64]float64) {
	for f := range t {
		wt := math.Log(float64(f) + 1)
		t[f] = wt * wt
	}
	return t
}()

// EachTerm calls fn for every term of ixs in lexicographic order with f_t
// summed over them: a k-way pass over their sorted dictionaries.
func EachTerm(ixs []*Index, fn func(term string, ft uint32)) {
	next := slices.Grow(make([]int, 0, 8), len(ixs))[:len(ixs)] // zeroes, on the stack for up to eight
	for {
		term, found := "", false
		for i, ix := range ixs {
			if next[i] < len(ix.entries) {
				if t := ix.terms.At(uint32(next[i])); !found || t < term {
					term, found = t, true
				}
			}
		}
		if !found {
			return
		}
		var ft uint32
		for i, ix := range ixs {
			if next[i] < len(ix.entries) && ix.terms.At(uint32(next[i])) == term {
				ft += ix.entries[next[i]].ft
				next[i]++
			}
		}
		fn(term, ft)
	}
}
