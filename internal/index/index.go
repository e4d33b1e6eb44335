// Package index implements an MG-style compressed inverted index: for each
// term a Golomb/gamma-coded postings list with self-indexing skip points
// (Moffat & Zobel, TOIS 1996), a sorted front-codable dictionary, and the
// table of document weights W_d used by the cosine measure.
//
// The index is immutable once built. Build one with a Builder, persist it
// with WriteTo/ReadFrom, and query it through TermCursor (sequential or
// skip-based access).
package index

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
)

// DefaultSkipInterval is the number of postings between synchronisation
// points in long lists. MG tunes this per list; a fixed interval keeps the
// format simple while preserving the asymptotics.
const DefaultSkipInterval = 64

// ErrTermNotFound is returned by Cursor when the term is not indexed.
var ErrTermNotFound = errors.New("index: term not found")

// Posting aliases codec.Posting: one (doc, f_dt) pair.
type Posting = codec.Posting

// termEntry is one dictionary entry: the term, f_t and where its list and
// skip table start in the index's arenas. The list runs to the next entry's
// offset (to the arena's end for the last entry); the skip table holds
// numSkips(f_t) values — the last document of each block before a sync
// point — then as many bit offsets, each where the block after it starts.
type termEntry struct {
	term string
	ft   uint32 // number of documents containing the term
	off  uint32 // the list's first byte in Index.arena
	skip uint32 // the skip table's first value in Index.skips
}

// Index is an immutable inverted file over one collection. Its lists sit
// end to end in one byte arena and their skip tables in one uint32 arena,
// both in term order, so a dictionary entry is a term, f_t and two offsets.
type Index struct {
	entries []termEntry       // sorted by term
	byTerm  map[string]uint32 // term -> entries index
	arena   []byte            // every compressed list
	skips   []uint32          // every skip table
	weights []float32         // W_d per document
	lens    []uint32          // indexed-term count per document (for stats)
	numDocs uint32
	numPtrs uint64 // total postings count
	skipIvl uint32

	// invW caches 1/W_d (0 where W_d is 0), built lazily: the scoring
	// kernel's normalisation pass is then a pure array scan with no
	// error-returning DocWeight calls. Safe because the index is immutable
	// once constructed.
	invOnce sync.Once
	invW    []float64
}

// Builder accumulates documents and produces an Index. Terms are interned to
// dense ids on first sight, and a document is counted by id in tf rather than
// in a map of its own, so W_d sums log(f_dt+1)² over the document's distinct
// terms in the order each first appears in it: the float64 sum, and so the
// float32 weight, is the same on every run.
type Builder struct {
	ids     map[string]uint32 // term -> id
	terms   []string          // id -> term
	lists   [][]Posting       // id -> postings, ascending doc
	tf      []uint32          // id -> f_dt in the document being added; 0 between documents
	seen    []uint32          // that document's distinct ids, first appearance order
	scratch []uint32          // Add's ids
	weights []float32
	lens    []uint32
	skipIvl uint32
}

// BuilderOption configures a Builder.
type BuilderOption func(*Builder)

// WithSkipInterval overrides the skip-point spacing; interval 0 disables
// skip structures entirely (used by the skipping ablation).
func WithSkipInterval(interval uint32) BuilderOption {
	return func(b *Builder) { b.skipIvl = interval }
}

// skipIntervalOf resolves the skip interval that Builder options select,
// allocating nothing when there are none.
func skipIntervalOf(opts []BuilderOption) uint32 {
	if len(opts) == 0 {
		return DefaultSkipInterval
	}
	cfg := Builder{skipIvl: DefaultSkipInterval}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg.skipIvl
}

// NewBuilder returns an empty Builder.
func NewBuilder(opts ...BuilderOption) *Builder {
	return &Builder{ids: make(map[string]uint32, 1024), skipIvl: skipIntervalOf(opts)}
}

// Add indexes one document given its analysed terms and returns the document
// id assigned (dense, starting at 0). Terms may repeat; repeats become f_dt.
func (b *Builder) Add(terms []string) uint32 {
	ids := b.scratch[:0]
	for _, t := range terms {
		ids = append(ids, b.TermID(t))
	}
	b.scratch = ids
	return b.AddIDs(ids)
}

// TermID returns term's id in this Builder, interning it on first sight.
func (b *Builder) TermID(term string) uint32 {
	if id, ok := b.ids[term]; ok {
		return id
	}
	id := uint32(len(b.terms))
	b.ids[term] = id
	b.terms = append(b.terms, term)
	b.lists = append(b.lists, nil)
	b.tf = append(b.tf, 0)
	return id
}

// AddIDs is Add for a document given as the TermIDs of its analysed terms.
func (b *Builder) AddIDs(ids []uint32) uint32 {
	doc := uint32(len(b.weights))
	seen := b.seen[:0]
	for _, id := range ids {
		if b.tf[id] == 0 {
			seen = append(seen, id)
		}
		b.tf[id]++
	}
	var sumSq float64
	for _, id := range seen {
		f := b.tf[id]
		b.tf[id] = 0
		b.lists[id] = append(b.lists[id], Posting{Doc: doc, FDT: f})
		w := math.Log(float64(f) + 1)
		sumSq += w * w
	}
	b.seen = seen
	b.weights = append(b.weights, float32(math.Sqrt(sumSq)))
	b.lens = append(b.lens, uint32(len(ids)))
	return doc
}

// Build freezes the builder into an immutable Index. The Builder must not be
// used afterwards: its term map becomes the index's dictionary lookup.
func (b *Builder) Build() (*Index, error) {
	var postings, skips int
	for _, l := range b.lists {
		postings += len(l)
		skips += 2 * numSkips(uint32(len(l)), b.skipIvl)
	}
	// A posting takes about a byte; seal trims what the estimate overshoots.
	ix := newIndex(uint32(len(b.weights)), b.skipIvl, len(b.terms), postings, skips)
	ix.byTerm, ix.weights, ix.lens = b.ids, b.weights, b.lens
	order := make([]uint32, len(b.terms)) // ids in term order
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(b.terms[x], b.terms[y]) })
	for _, id := range order {
		// Builder.Add appends docs in increasing order, so the list is
		// already sorted; appendList verifies it cheaply in case of misuse.
		if err := ix.appendList(b.terms[id], b.lists[id]); err != nil {
			return nil, fmt.Errorf("index: term %q: %w", b.terms[id], err)
		}
	}
	b.ids, b.terms, b.lists = nil, nil, nil
	return ix.seal(), nil
}

// newIndex returns an index of numDocs documents with no lists yet, its
// arenas sized for terms entries, listBytes bytes of lists and skips skip
// values.
func newIndex(numDocs, skipIvl uint32, terms, listBytes, skips int) *Index {
	return &Index{
		entries: make([]termEntry, 0, terms),
		arena:   make([]byte, 0, listBytes),
		skips:   make([]uint32, 0, skips),
		numDocs: numDocs,
		skipIvl: skipIvl,
	}
}

// numSkips is the number of sync points in a list of ft postings: one before
// each block of skipIvl postings after the first.
func numSkips(ft, skipIvl uint32) int {
	if skipIvl == 0 || ft == 0 {
		return 0
	}
	return int((ft - 1) / skipIvl)
}

// appendList codes term's postings — ascending, inside the collection — at
// the ends of the arenas, with its sync points, and adds its entry: the one
// coder of an index's lists, which Build, Merge and BuildFromGroups append
// through.
func (ix *Index) appendList(term string, postings []Posting) error {
	n := 2 * numSkips(uint32(len(postings)), ix.skipIvl)
	ix.skips = grow(ix.skips, n)
	var w bitio.Writer
	w.ResetTo(grow(ix.arena, len(postings)))
	if err := codec.AppendList(&w, postings, ix.numDocs, int(ix.skipIvl), ix.skips[len(ix.skips):][:n]); err != nil {
		return err
	}
	return ix.addEntry(term, uint32(len(postings)), w.Bytes(), n)
}

// addEntry adds term's entry over the ft postings that end arena, ix.arena
// extended by their list, and the n skip values past the end of ix.skips.
func (ix *Index) addEntry(term string, ft uint32, arena []byte, n int) error {
	if len(term) == 0 || len(term) > 255 || ft == 0 {
		return fmt.Errorf("%d-byte term with %d postings, want [1, 255] bytes and a posting", len(term), ft)
	}
	if uint64(len(arena)) > math.MaxUint32 {
		return errors.New("postings exceed 4 GiB")
	}
	ix.entries = append(grow(ix.entries, 1), termEntry{term: term, ft: ft, off: uint32(len(ix.arena)), skip: uint32(len(ix.skips))})
	ix.arena, ix.skips = arena, ix.skips[:len(ix.skips)+n]
	ix.numPtrs += uint64(ft)
	return nil
}

// seal trims the slack the producer's estimates and doubling left in the
// arenas, and points the term lookup — a map the producer handed over, or a
// new one — at the entries.
func (ix *Index) seal() *Index {
	ix.entries, ix.arena, ix.skips = trim(ix.entries), trim(ix.arena), trim(ix.skips)
	if ix.byTerm == nil {
		ix.byTerm = make(map[string]uint32, len(ix.entries))
	}
	for i, e := range ix.entries {
		ix.byTerm[e.term] = uint32(i)
	}
	return ix
}

// grow makes room for n more elements, at least doubling the capacity when
// it must move, so an arena filled list by list moves a logarithmic number
// of times.
func grow[E any](s []E, n int) []E {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, cap(s)))
	}
	return s
}

// trim returns s in an allocation of its own length, or s itself when it
// has no spare capacity.
func trim[E any](s []E) []E {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]E, 0, len(s)), s...)
}

// list returns entry i's compressed postings and its skip table's last
// documents and bit offsets.
func (ix *Index) list(i int) (postings []byte, skipDocs, skipBits []uint32) {
	e := &ix.entries[i]
	end := uint32(len(ix.arena))
	if i+1 < len(ix.entries) {
		end = ix.entries[i+1].off
	}
	s, n := e.skip, uint32(numSkips(e.ft, ix.skipIvl))
	return ix.arena[e.off:end:end], ix.skips[s : s+n : s+n], ix.skips[s+n : s+2*n : s+2*n]
}

// NumDocs returns the number of documents in the collection.
func (ix *Index) NumDocs() uint32 { return ix.numDocs }

// NumTerms returns the number of distinct indexed terms.
func (ix *Index) NumTerms() int { return len(ix.entries) }

// SkipInterval returns the skip-point spacing the index was built with (0:
// no skip structures), so a merge can rebuild under the same setting.
func (ix *Index) SkipInterval() uint32 { return ix.skipIvl }

// NumPostings returns the total number of (doc, f_dt) pairs stored.
func (ix *Index) NumPostings() uint64 { return ix.numPtrs }

// InvDocWeights returns the cached reciprocal document-weight table:
// entry d is 1/W_d, or 0 when W_d is 0 (a document that cannot score).
// The slice is shared and must not be modified.
func (ix *Index) InvDocWeights() []float64 {
	ix.invOnce.Do(func() {
		inv := make([]float64, len(ix.weights))
		for d, w := range ix.weights {
			if w != 0 {
				inv[d] = 1 / float64(w)
			}
		}
		ix.invW = inv
	})
	return ix.invW
}

// TermFreq returns f_t, the number of documents containing term (0 when the
// term is absent).
func (ix *Index) TermFreq(term string) uint32 {
	if i, ok := ix.byTerm[term]; ok {
		return ix.entries[i].ft
	}
	return 0
}

// Terms calls fn for every indexed term in lexicographic order with its f_t.
// fn returning false stops the walk.
func (ix *Index) Terms(fn func(term string, ft uint32) bool) {
	for _, e := range ix.entries {
		if !fn(e.term, e.ft) {
			return
		}
	}
}

// SizeBytes reports the compressed size of the postings (the "index size"
// quantity the paper reports for the CI methodology), excluding the
// dictionary.
func (ix *Index) SizeBytes() uint64 { return uint64(len(ix.arena)) }

// DictSizeBytes approximates the dictionary ("vocabulary") size: the
// quantity a CV receptionist must store per collection.
func (ix *Index) DictSizeBytes() uint64 {
	var n uint64
	for _, e := range ix.entries {
		n += uint64(len(e.term)) + 8 // term bytes + f_t + offset bookkeeping
	}
	return n
}
