package index

import (
	"fmt"
	"math"
	"sort"

	"teraphim/internal/bitio"
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
		return sort.Search(len(ix.entries), func(i int) bool { return ix.entries[i].term >= t })
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
	cur     TermCursor
}

func (s *indexGroups) NextTerm() (string, error) {
	if s.i++; s.i >= s.end {
		return "", nil
	}
	return s.ix.entries[s.i].term, nil
}

func (s *indexGroups) AppendGroups(dst []Posting) ([]Posting, error) {
	e := &s.ix.entries[s.i]
	s.ix.resetCursorEntry(&s.cur, e)
	start := len(dst)
	for blk := s.cur.NextBlock(); blk != nil; blk = s.cur.NextBlock() {
		for _, p := range blk {
			grp := (s.base + p.Doc) / s.g
			if n := len(dst); n > start && dst[n-1].Doc == grp {
				dst[n-1].FDT += p.FDT
			} else {
				dst = append(dst, Posting{Doc: grp, FDT: p.FDT})
			}
		}
	}
	if s.cur.pos != e.ft || s.cur.cur.Doc >= s.ix.numDocs {
		return dst, fmt.Errorf("index: term %q: corrupt list (%d of %d postings decoded)", e.term, s.cur.pos, e.ft)
	}
	return dst, nil
}

// FoldGroups merges srcs — the parts of one collection, in ascending
// document order — term by term, in the k-way manner of Merge: for each term
// in lexicographic order it concatenates the parts' groups, summing the group
// two adjacent parts share, and calls emit with the folded list, which is
// valid only during the call.
func FoldGroups(srcs []GroupSource, emit func(term string, groups []Posting) error) error {
	heads := make([]string, len(srcs))
	for i, s := range srcs {
		var err error
		if heads[i], err = s.NextTerm(); err != nil {
			return fmt.Errorf("index: part %d: %w", i, err)
		}
	}
	var list []Posting
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
				list[start-1].FDT += list[start].FDT
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
// document made of the group's terms.
func BuildFromGroups(srcs []GroupSource, numDocs uint32, opts ...BuilderOption) (*Index, error) {
	ix := &Index{
		byTerm:  make(map[string]int),
		weights: make([]float32, numDocs),
		lens:    make([]uint32, numDocs),
		numDocs: numDocs,
		skipIvl: skipIntervalOf(opts),
	}
	sumSq := make([]float64, numDocs)
	w := bitio.NewWriter(4096)
	err := FoldGroups(srcs, func(term string, groups []Posting) error {
		for _, p := range groups {
			if p.Doc >= numDocs || p.FDT == 0 {
				return fmt.Errorf("index: term %q: posting (%d, %d) outside collection of %d", term, p.Doc, p.FDT, numDocs)
			}
			if p.FDT < uint32(len(logSq)) {
				sumSq[p.Doc] += logSq[p.FDT]
			} else {
				wt := math.Log(float64(p.FDT) + 1)
				sumSq[p.Doc] += wt * wt
			}
			ix.lens[p.Doc] += p.FDT
		}
		entry, err := compressList(w, term, groups, numDocs, ix.skipIvl)
		if err != nil {
			return fmt.Errorf("index: term %q: %w", term, err)
		}
		ix.byTerm[term] = len(ix.entries)
		ix.entries = append(ix.entries, entry)
		ix.numPtrs += uint64(len(groups))
		ix.postings += uint64(len(entry.postings))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for d, s := range sumSq {
		ix.weights[d] = float32(math.Sqrt(s))
	}
	return ix, nil
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
	next := make([]int, len(ixs))
	for {
		term, found := "", false
		for i, ix := range ixs {
			if next[i] < len(ix.entries) {
				if t := ix.entries[next[i]].term; !found || t < term {
					term, found = t, true
				}
			}
		}
		if !found {
			return
		}
		var ft uint32
		for i, ix := range ixs {
			if next[i] < len(ix.entries) && ix.entries[next[i]].term == term {
				ft += ix.entries[next[i]].ft
				next[i]++
			}
		}
		fn(term, ft)
	}
}
