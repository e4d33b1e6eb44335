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
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
	"teraphim/internal/intern"
)

// DefaultSkipInterval is the number of postings between synchronisation
// points in long lists. MG tunes this per list; a fixed interval keeps the
// format simple while preserving the asymptotics.
const DefaultSkipInterval = 64

// ErrTermNotFound is returned by ResetCursor when the term is not indexed.
var ErrTermNotFound = errors.New("index: term not found")

// Posting aliases codec.Posting: one (doc, f_dt) pair.
type Posting = codec.Posting

// termEntry is one dictionary entry, its term the index's term of the same
// number: f_t and where its list and skip table start in the index's arenas.
// The list runs to the next entry's offset (to the arena's end for the last
// entry); the skip table holds numSkips(f_t) values — the last document of
// each block before a sync point — then as many bit offsets, each where the
// block after it starts.
type termEntry struct {
	ft   uint32 // number of documents containing the term
	off  uint32 // the list's first byte in Index.arena
	skip uint32 // the skip table's first value in Index.skips
}

// Index is an immutable inverted file over one collection. Its terms sit end
// to end in one term table, its lists in one byte arena and their skip tables
// in one uint32 arena, all in term order, so a dictionary entry is f_t and
// two offsets.
type Index struct {
	terms   *intern.Table // term i is entry i's, ascending
	entries []termEntry
	arena   []byte    // every compressed list
	skips   []uint32  // every skip table
	weights []float32 // W_d per document
	lens    []uint32  // indexed-term count per document (for stats)
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
	terms   *intern.Table // id -> term, in first-sight order
	ft      []uint32      // id -> f_t so far, which sizes its list when Build inverts
	tf      []uint32      // id -> f_dt in the document being added; 0 between documents
	pairs   [][]docTerm   // every document's distinct terms, first appearance order, in blocks
	counts  []int         // how many pairs document d has
	logs    []float64     // logs[f] = log(f+1), for every f_dt met so far
	scratch []uint32      // Add's ids
	weights []float32
	lens    []uint32
	skipIvl uint32
}

// docTerm is one of a document's distinct terms, with its f_dt.
type docTerm struct{ id, fdt uint32 }

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
	return &Builder{terms: intern.New(0, 0), skipIvl: skipIntervalOf(opts)}
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
	id, added := b.terms.Intern(term)
	if added {
		b.ft = append(b.ft, 0)
		b.tf = append(b.tf, 0)
	}
	return id
}

// AddIDs is Add for a document given as the TermIDs of its analysed terms.
func (b *Builder) AddIDs(ids []uint32) uint32 {
	// A document's pairs go in one block, and a full block is never moved.
	if n := len(b.pairs); n == 0 || cap(b.pairs[n-1])-len(b.pairs[n-1]) < len(ids) {
		b.pairs = append(b.pairs, make([]docTerm, 0, max(4096, len(ids))))
	}
	doc, pairs := uint32(len(b.weights)), &b.pairs[len(b.pairs)-1]
	from := len(*pairs)
	for _, id := range ids {
		if b.tf[id] == 0 {
			*pairs = append(*pairs, docTerm{id: id})
		}
		b.tf[id]++
	}
	var sumSq float64
	for i := from; i < len(*pairs); i++ {
		p := &(*pairs)[i]
		p.fdt, b.tf[p.id] = b.tf[p.id], 0
		b.ft[p.id]++
		for int(p.fdt) >= len(b.logs) {
			b.logs = append(b.logs, math.Log(float64(len(b.logs))+1))
		}
		sumSq += b.logs[p.fdt] * b.logs[p.fdt]
	}
	b.counts = append(b.counts, len(*pairs)-from)
	b.weights = append(b.weights, float32(math.Sqrt(sumSq)))
	b.lens = append(b.lens, uint32(len(ids)))
	return doc
}

// Build freezes the builder into an immutable Index. The Builder must not be
// used afterwards.
func (b *Builder) Build() (*Index, error) {
	// Ids in term order, strings.Compare's: compared first as each term's
	// leading eight bytes, zero-padded, in one big-endian word, and whole
	// only where those tie.
	order, keys := make([]uint32, b.terms.Len()), make([]uint64, b.terms.Len())
	for id := range order {
		var lead [8]byte
		copy(lead[:], b.terms.At(uint32(id)))
		order[id], keys[id] = uint32(id), binary.BigEndian.Uint64(lead[:])
	}
	slices.SortFunc(order, func(x, y uint32) int {
		if keys[x] != keys[y] {
			return cmp.Compare(keys[x], keys[y])
		}
		return strings.Compare(b.terms.At(x), b.terms.At(y))
	})
	// next[id] is where term id's next posting goes, its list in term order.
	next, postings, skips := make([]int, len(order)), 0, 0
	for _, id := range order {
		next[id], postings = postings, postings+int(b.ft[id])
		skips += 2 * numSkips(b.ft[id], b.skipIvl)
	}
	arena, blk, from := make([]Posting, postings), 0, 0
	for doc, n := range b.counts {
		if from+n > len(b.pairs[blk]) { // the document opened the next block
			blk, from = blk+1, 0
		}
		for _, p := range b.pairs[blk][from : from+n] {
			arena[next[p.id]] = Posting{Doc: uint32(doc), FDT: p.fdt}
			next[p.id]++
		}
		from += n
	}
	// A posting takes about a byte; seal trims what the estimate overshoots.
	ix := newIndex(uint32(len(b.weights)), b.skipIvl, b.terms.Len(), b.terms.Bytes(), postings, skips)
	ix.weights, ix.lens = b.weights, b.lens
	for _, id := range order {
		if err := ix.appendList(b.terms.At(id), arena[next[id]-int(b.ft[id]):next[id]]); err != nil {
			return nil, fmt.Errorf("index: term %q: %w", b.terms.At(id), err)
		}
	}
	b.terms, b.ft, b.pairs, b.counts = nil, nil, nil, nil
	return ix.seal(), nil
}

// newIndex returns an index of numDocs documents with no lists yet, its
// arenas sized for terms entries of termBytes bytes of terms, listBytes bytes
// of lists and skips skip values.
func newIndex(numDocs, skipIvl uint32, terms, termBytes, listBytes, skips int) *Index {
	return &Index{
		terms:   intern.New(terms, termBytes),
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

// appendList adds term to the term table, codes its postings — ascending,
// inside the collection — at the ends of the arenas, with its sync points,
// and adds its entry: the one coder of an index's lists, which Build, Merge
// and BuildFromGroups append through.
func (ix *Index) appendList(term string, postings []Posting) error {
	ix.terms.Add(term)
	n := 2 * numSkips(uint32(len(postings)), ix.skipIvl)
	ix.skips = grow(ix.skips, n)
	var w bitio.Writer
	w.ResetTo(grow(ix.arena, len(postings)))
	if err := codec.AppendList(&w, postings, ix.numDocs, int(ix.skipIvl), ix.skips[len(ix.skips):][:n]); err != nil {
		return err
	}
	return ix.addEntry(uint32(len(postings)), w.Bytes(), n)
}

// addEntry adds the entry of the term table's newest term, over the ft
// postings that end arena, ix.arena extended by their list, and the n skip
// values past the end of ix.skips: every producer's one way in.
func (ix *Index) addEntry(ft uint32, arena []byte, n int) error {
	term := ix.terms.At(uint32(len(ix.entries)))
	if len(term) == 0 || len(term) > 255 || ft == 0 {
		return fmt.Errorf("%d-byte term with %d postings, want [1, 255] bytes and a posting", len(term), ft)
	}
	if uint64(len(arena)) > math.MaxUint32 {
		return errors.New("postings exceed 4 GiB")
	}
	ix.entries = append(grow(ix.entries, 1), termEntry{ft: ft, off: uint32(len(ix.arena)), skip: uint32(len(ix.skips))})
	ix.arena, ix.skips = arena, ix.skips[:len(ix.skips)+n]
	ix.numPtrs += uint64(ft)
	return nil
}

// seal trims the slack the producer's estimates and doubling left in the
// arenas, and freezes the term table with its lookup built.
func (ix *Index) seal() *Index {
	ix.entries, ix.arena, ix.skips = trim(ix.entries), trim(ix.arena), trim(ix.skips)
	ix.terms.Seal()
	ix.terms.Index()
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

// Entry is a term's dictionary entry in one index, as its Lookup resolved
// it: f_t and the entry's number. The zero Entry is a term the index lacks.
type Entry struct{ ft, i uint32 }

// FT returns f_t, the number of documents holding the entry's term.
func (e Entry) FT() uint32 { return e.ft }

// Lookup resolves term to its dictionary entry, the zero Entry when it is
// absent: the index's one lookup by term string.
func (ix *Index) Lookup(term string) Entry {
	if i, ok := ix.terms.Lookup(term); ok {
		return Entry{ft: ix.entries[i].ft, i: i}
	}
	return Entry{}
}

// Terms calls fn for every indexed term in lexicographic order with its f_t.
// fn returning false stops the walk.
func (ix *Index) Terms(fn func(term string, ft uint32) bool) {
	for i, e := range ix.entries {
		if !fn(ix.terms.At(uint32(i)), e.ft) {
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
	return uint64(ix.terms.Bytes()) + 8*uint64(len(ix.entries)) // term bytes + f_t + offset bookkeeping
}
