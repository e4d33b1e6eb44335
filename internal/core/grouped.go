package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// BuildGroupedFromIndexes builds the grouped central index from the
// subcollections' own inverted indexes — the paper's actual CI preprocessing
// ("the preprocessing involves merging the subcollection vocabularies and
// indexes"). offsets[i] is the global document number of subIndexes[i]'s
// local document 0; the sub-indexes must tile [0, totalDocs) in increasing
// offset order. Each is grouped and the groups folded, as CI set-up does over
// the wire, and the result is identical to BuildGrouped over the original
// documents.
func BuildGroupedFromIndexes(subIndexes []*index.Index, offsets []uint32, totalDocs uint32, groupSize int, analyzer *textproc.Analyzer) (*GroupedIndex, error) {
	if groupSize < 1 || uint64(groupSize) > math.MaxUint32 {
		return nil, fmt.Errorf("core: group size %d must be in [1, 2^32)", groupSize)
	}
	if len(subIndexes) != len(offsets) {
		return nil, fmt.Errorf("core: %d indexes but %d offsets", len(subIndexes), len(offsets))
	}
	srcs := make([]index.GroupSource, len(subIndexes))
	var covered uint64
	for i, ix := range subIndexes {
		if uint64(offsets[i]) != covered {
			return nil, fmt.Errorf("core: index %d starts at doc %d, the indexes before it end at %d", i, offsets[i], covered)
		}
		covered += uint64(ix.NumDocs())
		srcs[i] = ix.Groups(offsets[i], uint32(groupSize))
	}
	if covered != uint64(totalDocs) {
		return nil, fmt.Errorf("core: indexes cover %d docs, collection has %d", covered, totalDocs)
	}
	return foldGrouped(srcs, totalDocs, uint32(groupSize), analyzer)
}

// foldGrouped builds the grouped index of totalDocs documents, g to a group,
// from the grouped lists of its parts in document order.
func foldGrouped(srcs []index.GroupSource, totalDocs, g uint32, analyzer *textproc.Analyzer) (*GroupedIndex, error) {
	if totalDocs == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	ix, err := index.BuildFromGroups(srcs, (totalDocs-1)/g+1)
	if err != nil {
		return nil, fmt.Errorf("core: build grouped index: %w", err)
	}
	return &GroupedIndex{groupSize: g, totalDocs: totalDocs, engine: search.NewEngine(ix, analyzer)}, nil
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

// RankGroupsEval returns the k' best groups for the query under eval, with
// the grouped index's own statistics, on a caller-owned search.Scratch,
// together with the index work performed. It is search.RankParts over the
// grouped index as one part, so CI's central ranking runs the librarians'
// kernel and its rank-safe pruning.
func (g *GroupedIndex) RankGroupsEval(s *search.Scratch, query string, kPrime int, eval search.Evaluator) ([]uint32, search.Stats, error) {
	results, stats, err := search.RankParts(nil, s, []search.Part{{Engine: g.engine}}, query, kPrime, nil, eval)
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
