package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/textproc"
)

// GroupedIndex is the Central Index methodology's space-reduced central
// structure: adjacent documents (in global numbering) are collected into
// groups of size G and each group indexed as if it were a single document
// (Moffat & Zobel, TREC-3). Ranking the grouped index yields candidate
// groups; expanding the k' best groups gives k'·G document ids whose exact
// similarities the owning librarians then compute.
type GroupedIndex struct {
	groupSize uint32
	totalDocs uint32
	engine    *search.Engine
}

// BuildGrouped builds the grouped central index from the analysed term
// lists of every document in global order. groupSize G must be ≥ 1; the
// paper uses G=10.
func BuildGrouped(docTerms [][]string, groupSize int, analyzer *textproc.Analyzer) (*GroupedIndex, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("core: group size %d must be >= 1", groupSize)
	}
	if len(docTerms) == 0 {
		return nil, fmt.Errorf("core: no documents to group")
	}
	b := index.NewBuilder()
	for lo := 0; lo < len(docTerms); lo += groupSize {
		hi := lo + groupSize
		if hi > len(docTerms) {
			hi = len(docTerms)
		}
		var groupTerms []string
		for _, terms := range docTerms[lo:hi] {
			groupTerms = append(groupTerms, terms...)
		}
		b.Add(groupTerms)
	}
	ix, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: build grouped index: %w", err)
	}
	return &GroupedIndex{
		groupSize: uint32(groupSize),
		totalDocs: uint32(len(docTerms)),
		engine:    search.NewEngine(ix, analyzer),
	}, nil
}

// BuildGroupedFromIndexes builds the grouped central index by merging the
// subcollections' own inverted indexes — the paper's actual CI
// preprocessing ("the preprocessing involves merging the subcollection
// vocabularies and indexes"). offsets[i] is the global document number of
// subIndexes[i]'s local document 0; totalDocs the collection size. The
// sub-indexes are taken in increasing offset order (out of order, a group
// that straddles two of them is rejected as a duplicate posting). The result
// is identical to BuildGrouped over the original documents.
func BuildGroupedFromIndexes(subIndexes []*index.Index, offsets []uint32, totalDocs uint32, groupSize int, analyzer *textproc.Analyzer) (*GroupedIndex, error) {
	if groupSize < 1 {
		return nil, fmt.Errorf("core: group size %d must be >= 1", groupSize)
	}
	if len(subIndexes) != len(offsets) {
		return nil, fmt.Errorf("core: %d indexes but %d offsets", len(subIndexes), len(offsets))
	}
	if totalDocs == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	g := uint32(groupSize)
	numGroups := (totalDocs + g - 1) / g
	rb := index.NewRawBuilder(numGroups)

	// Accumulate f_{group,term} across subcollections. Postings are
	// document-sorted and the sub-indexes come in offset order, so a term's
	// groups arrive in increasing order: a posting either opens a new group
	// or adds to the term's last one, which the previous subcollection may
	// have opened when a group straddles the boundary.
	acc := make(map[string][]index.Posting, 4096)
	var cur index.TermCursor
	for i, ix := range subIndexes {
		offset := offsets[i]
		var walkErr error
		ix.Terms(func(term string, ft uint32) bool {
			if walkErr = ix.ResetCursor(&cur, term); walkErr != nil {
				return false
			}
			groups := acc[term]
			for blk := cur.NextBlock(); blk != nil; blk = cur.NextBlock() {
				for _, p := range blk {
					global := offset + p.Doc
					if global >= totalDocs {
						walkErr = fmt.Errorf("core: doc %d of %q exceeds collection size %d", p.Doc, term, totalDocs)
						return false
					}
					grp := global / g
					if n := len(groups); n > 0 && groups[n-1].Doc == grp {
						groups[n-1].FDT += p.FDT
					} else {
						groups = append(groups, index.Posting{Doc: grp, FDT: p.FDT})
					}
				}
			}
			acc[term] = groups
			return true
		})
		if walkErr != nil {
			return nil, walkErr
		}
	}
	for term, groups := range acc {
		if err := rb.AddPostings(term, groups); err != nil {
			return nil, fmt.Errorf("core: term %q: %w", term, err)
		}
	}
	ix, err := rb.Build()
	if err != nil {
		return nil, fmt.Errorf("core: build grouped index: %w", err)
	}
	return &GroupedIndex{
		groupSize: g,
		totalDocs: totalDocs,
		engine:    search.NewEngine(ix, analyzer),
	}, nil
}

// Grouped-index file format: magic "TPGI" | version u32 | groupSize u32 |
// totalDocs u32 | embedded index (index.WriteTo).
const (
	groupedMagic   = "TPGI"
	groupedVersion = 1
)

// WriteTo persists the grouped index so a CI receptionist can reopen it
// without repeating the merge preprocessing.
func (g *GroupedIndex) WriteTo(w io.Writer) (int64, error) {
	var hdr [16]byte
	copy(hdr[:4], groupedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], groupedVersion)
	binary.LittleEndian.PutUint32(hdr[8:], g.groupSize)
	binary.LittleEndian.PutUint32(hdr[12:], g.totalDocs)
	n, err := w.Write(hdr[:])
	if err != nil {
		return int64(n), err
	}
	m, err := g.engine.Index().WriteTo(w)
	return int64(n) + m, err
}

// ReadGrouped reopens a grouped index written by WriteTo. The analyzer must
// match the one the index was built with.
func ReadGrouped(r io.Reader, analyzer *textproc.Analyzer) (*GroupedIndex, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: grouped index header: %w", err)
	}
	if string(hdr[:4]) != groupedMagic {
		return nil, fmt.Errorf("core: bad grouped index magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != groupedVersion {
		return nil, fmt.Errorf("core: unsupported grouped index version %d", v)
	}
	groupSize := binary.LittleEndian.Uint32(hdr[8:])
	totalDocs := binary.LittleEndian.Uint32(hdr[12:])
	if groupSize == 0 || totalDocs == 0 {
		return nil, fmt.Errorf("core: corrupt grouped index header (G=%d, docs=%d)", groupSize, totalDocs)
	}
	ix, err := index.ReadFrom(r)
	if err != nil {
		return nil, fmt.Errorf("core: grouped index body: %w", err)
	}
	wantGroups := (totalDocs + groupSize - 1) / groupSize
	if ix.NumDocs() != wantGroups {
		return nil, fmt.Errorf("core: grouped index has %d groups, header implies %d", ix.NumDocs(), wantGroups)
	}
	return &GroupedIndex{
		groupSize: groupSize,
		totalDocs: totalDocs,
		engine:    search.NewEngine(ix, analyzer),
	}, nil
}

// GroupSize returns G.
func (g *GroupedIndex) GroupSize() uint32 { return g.groupSize }

// NumGroups returns the number of groups indexed.
func (g *GroupedIndex) NumGroups() uint32 { return g.engine.Index().NumDocs() }

// SizeBytes reports the compressed postings size of the grouped index — the
// receptionist-side storage cost the paper compares against the full
// central index.
func (g *GroupedIndex) SizeBytes() uint64 { return g.engine.Index().SizeBytes() }

// RankGroups returns the k' best groups for the query, using the grouped
// index's own statistics, together with the index work performed.
func (g *GroupedIndex) RankGroups(query string, kPrime int) ([]uint32, search.Stats, error) {
	s := search.GetScratch()
	defer s.Release()
	return g.RankGroupsWith(s, query, kPrime)
}

// RankGroupsWith is RankGroups on a caller-owned search.Scratch, letting the
// CI query path reuse one set of kernel accumulators across queries.
func (g *GroupedIndex) RankGroupsWith(s *search.Scratch, query string, kPrime int) ([]uint32, search.Stats, error) {
	return g.RankGroupsEval(s, query, kPrime, search.EvalExact)
}

// RankGroupsEval is RankGroupsWith under an explicit evaluation strategy, so
// CI's central ranking benefits from the same rank-safe dynamic pruning as
// the librarians' rank phase.
func (g *GroupedIndex) RankGroupsEval(s *search.Scratch, query string, kPrime int, eval search.Evaluator) ([]uint32, search.Stats, error) {
	results, stats, err := g.engine.RankWithEval(s, query, kPrime, nil, eval)
	if err != nil {
		return nil, stats, fmt.Errorf("core: rank groups: %w", err)
	}
	groups := make([]uint32, len(results))
	for i, r := range results {
		groups[i] = r.Doc
	}
	return groups, stats, nil
}

// Expand converts group ids into the global document ids they cover,
// clipped to the collection size.
func (g *GroupedIndex) Expand(groups []uint32) []uint32 {
	docs := make([]uint32, 0, len(groups)*int(g.groupSize))
	for _, grp := range groups {
		lo := grp * g.groupSize
		for d := lo; d < lo+g.groupSize && d < g.totalDocs; d++ {
			docs = append(docs, d)
		}
	}
	return docs
}
