package index

import (
	"fmt"
	"math"
	"sort"

	"teraphim/internal/bitio"
)

// RawBuilder assembles an index directly from postings lists rather than
// from document term lists. It is the tool for *merging* indexes — the
// Central Index receptionist uses it to build its grouped central index
// from the librarians' own inverted files, without ever seeing a document.
//
// Document weights are derived from the supplied postings
// (W_d = sqrt(Σ log(f_dt+1)²)), and document lengths are approximated by
// Σ f_dt, both exactly what a full rebuild over the original text would
// produce for indexed terms.
type RawBuilder struct {
	numDocs uint32
	terms   map[string][]Posting
	sumSq   []float64
	lens    []uint32
	skipIvl uint32
}

// skipIntervalOf resolves the skip interval that Builder options select, for
// the index producers that are not a Builder (RawBuilder, Merge).
func skipIntervalOf(opts []BuilderOption) uint32 {
	cfg := Builder{skipIvl: DefaultSkipInterval}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg.skipIvl
}

// NewRawBuilder returns a RawBuilder for a collection of numDocs documents.
func NewRawBuilder(numDocs uint32, opts ...BuilderOption) *RawBuilder {
	return &RawBuilder{
		numDocs: numDocs,
		terms:   make(map[string][]Posting, 1024),
		sumSq:   make([]float64, numDocs),
		lens:    make([]uint32, numDocs),
		skipIvl: skipIntervalOf(opts),
	}
}

// AddPostings merges postings for term into the builder. Postings may be
// added in several calls (for example one per source subcollection) and in
// any order; duplicates of the same document are rejected at Build.
func (b *RawBuilder) AddPostings(term string, postings []Posting) error {
	if len(postings) == 0 {
		return nil
	}
	for _, p := range postings {
		if p.Doc >= b.numDocs {
			return fmt.Errorf("index: posting doc %d outside collection of %d", p.Doc, b.numDocs)
		}
		if p.FDT == 0 {
			return fmt.Errorf("index: posting for doc %d has zero f_dt", p.Doc)
		}
		w := math.Log(float64(p.FDT) + 1)
		b.sumSq[p.Doc] += w * w
		b.lens[p.Doc] += p.FDT
	}
	b.terms[term] = append(b.terms[term], postings...)
	return nil
}

// Build freezes the builder into an immutable Index.
func (b *RawBuilder) Build() (*Index, error) {
	ix := &Index{
		entries: make([]termEntry, 0, len(b.terms)),
		byTerm:  make(map[string]int, len(b.terms)),
		weights: make([]float32, b.numDocs),
		lens:    b.lens,
		numDocs: b.numDocs,
		skipIvl: b.skipIvl,
	}
	for d := range ix.weights {
		ix.weights[d] = float32(math.Sqrt(b.sumSq[d]))
	}
	terms := make([]string, 0, len(b.terms))
	for t := range b.terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	w := bitio.NewWriter(4096)
	for _, t := range terms {
		postings := b.terms[t]
		sort.Slice(postings, func(i, j int) bool { return postings[i].Doc < postings[j].Doc })
		for i := 1; i < len(postings); i++ {
			if postings[i].Doc == postings[i-1].Doc {
				return nil, fmt.Errorf("index: term %q has duplicate postings for doc %d", t, postings[i].Doc)
			}
		}
		entry, err := compressList(w, t, postings, ix.numDocs, b.skipIvl)
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", t, err)
		}
		ix.byTerm[t] = len(ix.entries)
		ix.entries = append(ix.entries, entry)
		ix.numPtrs += uint64(len(postings))
		ix.postings += uint64(len(entry.postings))
	}
	b.terms = nil
	return ix, nil
}
