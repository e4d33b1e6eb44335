package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"teraphim/internal/index"
	"teraphim/internal/protocol"
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
	var terms, postings int // at most what the indexes hold between them
	for i, ix := range subIndexes {
		if uint64(offsets[i]) != covered {
			return nil, fmt.Errorf("core: index %d starts at doc %d, the indexes before it end at %d", i, offsets[i], covered)
		}
		covered += uint64(ix.NumDocs())
		terms, postings = terms+ix.NumTerms(), postings+int(ix.NumPostings())
		srcs[i] = ix.Groups(offsets[i], uint32(groupSize), "", "")
	}
	if covered != uint64(totalDocs) {
		return nil, fmt.Errorf("core: indexes cover %d docs, collection has %d", covered, totalDocs)
	}
	return foldGrouped(srcs, totalDocs, uint32(groupSize), terms, postings, analyzer)
}

// foldGrouped builds the grouped index of totalDocs documents, g to a group,
// from the grouped lists of its parts in document order; terms and postings
// estimate its size, 0 where nothing does.
func foldGrouped(srcs []index.GroupSource, totalDocs, g uint32, terms, postings int, analyzer *textproc.Analyzer) (*GroupedIndex, error) {
	if totalDocs == 0 {
		return nil, fmt.Errorf("core: empty collection")
	}
	ix, err := index.BuildFromGroups(srcs, (totalDocs-1)/g+1, terms, postings)
	if err != nil {
		return nil, fmt.Errorf("core: build grouped index: %w", err)
	}
	return &GroupedIndex{groupSize: g, totalDocs: totalDocs, engine: search.NewEngine(ix, analyzer)}, nil
}

// partSource is one librarian's grouped lists as SetupCentralIndexRemote
// receives them: its parts' ListReaders in part order, each waited for only
// when the fold reaches it. It checks what no one ListReader can — that a
// part's first term follows the previous part's last — and, once the call is
// cancelled, returns the failure that cancelled it.
type partSource struct {
	ctx   context.Context // cancelled with the call's first failure
	name  string
	parts []chan *protocol.ListReader // one buffered slot per part
	next  int                         // the part after cur
	cur   *protocol.ListReader
	last  string
}

func (s *partSource) NextTerm() (string, error) {
	for {
		if s.cur == nil {
			if s.next == len(s.parts) {
				return "", nil
			}
			select {
			case s.cur = <-s.parts[s.next]:
				s.next++
			case <-s.ctx.Done():
				return "", context.Cause(s.ctx)
			}
		}
		term, err := s.cur.NextTerm()
		switch {
		case err != nil:
			return "", fmt.Errorf("core: librarian %q part %d: %w", s.name, s.next-1, err)
		case term == "":
			s.cur = nil
			continue
		case term <= s.last:
			return "", fmt.Errorf("core: librarian %q part %d: term %q after %q: %w", s.name, s.next-1, term, s.last, protocol.ErrBadIndexReply)
		}
		s.last = term
		return term, nil
	}
}

func (s *partSource) AppendGroups(dst []index.Posting) ([]index.Posting, error) {
	dst, err := s.cur.AppendGroups(dst)
	if err != nil {
		return dst, fmt.Errorf("core: librarian %q part %d: %w", s.name, s.next-1, err)
	}
	return dst, nil
}

// Grouped-index file format: magic "TPGI" | version u32 | groupSize u32 |
// totalDocs u32 | embedded index (index.WriteTo).
const (
	groupedMagic   = "TPGI"
	groupedVersion = 1
)

// WriteTo serialises the grouped index: the bytes the format digests in
// TestFormatPinned are taken over.
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

// SizeBytes reports the compressed postings size of the grouped index — the
// receptionist-side storage cost the paper compares against the full
// central index.
func (g *GroupedIndex) SizeBytes() uint64 { return g.engine.Index().SizeBytes() }

// RankGroups returns the k' best groups for the query, with the grouped
// index's own statistics, on a caller-owned search.Scratch, together with the
// index work performed. It is search.RankParts over the grouped index as one
// part, so CI's central ranking runs the librarians' kernel.
func (g *GroupedIndex) RankGroups(s *search.Scratch, query string, kPrime int) ([]uint32, search.Stats, error) {
	results, stats, err := search.RankParts(nil, s, []search.Part{{Engine: g.engine}}, query, kPrime, nil)
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
