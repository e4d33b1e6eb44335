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

// termEntry holds the index data for one term.
type termEntry struct {
	term     string
	ft       uint32 // number of documents containing the term
	postings []byte // compressed postings
	// Skip structure: skipDocs[i] is the last doc id of block i,
	// skipBits[i] the bit offset of block i+1 within postings. Present only
	// for lists longer than the skip interval.
	skipDocs []uint32
	skipBits []uint32
}

// Index is an immutable inverted file over one collection.
type Index struct {
	entries  []termEntry    // sorted by term
	byTerm   map[string]int // term -> entries index
	weights  []float32      // W_d per document
	lens     []uint32       // indexed-term count per document (for stats)
	numDocs  uint32
	numPtrs  uint64 // total postings count
	skipIvl  uint32
	postings uint64 // total compressed postings bytes

	// invW caches 1/W_d (0 where W_d is 0), built lazily: the scoring
	// kernel's normalisation pass is then a pure array scan with no
	// error-returning DocWeight calls. Safe because the index is immutable
	// once constructed. maxInv caches max_d 1/W_d alongside it — the
	// document-independent normalisation bound the dynamic-pruning
	// evaluators use before a candidate document is known.
	invOnce sync.Once
	invW    []float64
	maxInv  float64

	// maxFDT caches, per term entry, the largest within-document frequency
	// in that term's list — the quantity behind the exact per-term score
	// upper bound w_qt·log(maxFDT+1) that rank-safe dynamic pruning
	// (MaxScore/WAND) compares against the current top-k threshold. The
	// on-disk format does not store it, so the table is built lazily with
	// one full decode pass over every list and cached; immutability makes
	// the sync.Once sufficient.
	maxOnce sync.Once
	maxFDT  []uint32
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

// skipIntervalOf resolves the skip interval that Builder options select, for
// the index producers that are not a Builder (Merge, BuildFromGroups).
func skipIntervalOf(opts []BuilderOption) uint32 {
	cfg := Builder{skipIvl: DefaultSkipInterval}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg.skipIvl
}

// NewBuilder returns an empty Builder.
func NewBuilder(opts ...BuilderOption) *Builder {
	b := &Builder{ids: make(map[string]uint32, 1024), skipIvl: DefaultSkipInterval}
	for _, opt := range opts {
		opt(b)
	}
	return b
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
// used afterwards.
func (b *Builder) Build() (*Index, error) {
	idx := &Index{
		entries: make([]termEntry, 0, len(b.terms)),
		byTerm:  make(map[string]int, len(b.terms)),
		weights: b.weights,
		lens:    b.lens,
		numDocs: uint32(len(b.weights)),
		skipIvl: b.skipIvl,
	}
	order := make([]uint32, len(b.terms)) // ids in term order
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(b.terms[x], b.terms[y]) })
	w := bitio.NewWriter(4096)
	for _, id := range order {
		t, postings := b.terms[id], b.lists[id]
		// Builder.Add appends docs in increasing order, so the list is
		// already sorted; verify cheaply in case of misuse.
		entry, err := compressList(w, t, postings, idx.numDocs, b.skipIvl)
		if err != nil {
			return nil, fmt.Errorf("index: term %q: %w", t, err)
		}
		idx.byTerm[t] = len(idx.entries)
		idx.entries = append(idx.entries, entry)
		idx.numPtrs += uint64(len(postings))
		idx.postings += uint64(len(entry.postings))
	}
	b.ids, b.terms, b.lists = nil, nil, nil
	return idx, nil
}

// compressList encodes one postings list block by block so that each block
// can be decoded independently after a skip.
func compressList(w *bitio.Writer, term string, postings []Posting, numDocs, skipIvl uint32) (termEntry, error) {
	entry := termEntry{term: term, ft: uint32(len(postings))}
	if len(term) == 0 || len(term) > 255 {
		return entry, fmt.Errorf("term length %d outside [1, 255]", len(term))
	}
	w.Reset()
	useSkips := skipIvl > 0 && uint32(len(postings)) > skipIvl
	bGolomb := codec.GolombParameter(uint64(numDocs), uint64(len(postings)))
	prev := int64(-1)
	for i, p := range postings {
		if int64(p.Doc) <= prev && i > 0 {
			return entry, fmt.Errorf("postings not strictly increasing at %d", i)
		}
		blockStart := useSkips && i > 0 && uint32(i)%skipIvl == 0
		if blockStart {
			// Record a sync point: last doc of the previous block and the
			// bit offset where this block starts. Gap coding is continuous
			// across blocks, so a decoder seeking here resumes with
			// prev = skipDocs[i].
			entry.skipDocs = append(entry.skipDocs, uint32(prev))
			entry.skipBits = append(entry.skipBits, uint32(w.BitLen()))
		}
		gap := int64(p.Doc) - prev
		if gap <= 0 {
			return entry, fmt.Errorf("non-positive gap at posting %d", i)
		}
		if err := codec.PutGolomb(w, uint64(gap), bGolomb); err != nil {
			return entry, err
		}
		if err := codec.PutGamma(w, uint64(p.FDT)); err != nil {
			return entry, err
		}
		prev = int64(p.Doc)
	}
	entry.postings = append([]byte(nil), w.Bytes()...)
	return entry, nil
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
		maxInv := 0.0
		for d, w := range ix.weights {
			if w != 0 {
				inv[d] = 1 / float64(w)
				if inv[d] > maxInv {
					maxInv = inv[d]
				}
			}
		}
		ix.invW = inv
		ix.maxInv = maxInv
	})
	return ix.invW
}

// MaxInvDocWeight returns max_d 1/W_d over the collection (0 when every
// document weight is 0). Dynamic pruning scales accumulator upper bounds by
// it when no specific candidate document is in hand yet: for any document,
// score ≤ bound·MaxInvDocWeight/W_q.
func (ix *Index) MaxInvDocWeight() float64 {
	ix.InvDocWeights()
	return ix.maxInv
}

// MaxFDT returns the largest within-document frequency among term's
// postings (0 when the term is absent). Together with the query weight it
// yields the exact per-list contribution cap w_qt·log(MaxFDT+1) that the
// rank-safe evaluators prune against. The whole table is computed on first
// use — one sequential decode of every list, amortised across all
// subsequent queries — because the document-sorted format does not carry
// the maximum in its dictionary. A corrupt list
// yields the maximum of its decodable prefix, which still bounds every
// posting any evaluator can reach.
func (ix *Index) MaxFDT(term string) uint32 {
	i, ok := ix.byTerm[term]
	if !ok {
		return 0
	}
	ix.maxOnce.Do(func() {
		table := make([]uint32, len(ix.entries))
		var c TermCursor
		for j := range ix.entries {
			ix.resetCursorEntry(&c, &ix.entries[j])
			for {
				blk := c.NextBlock()
				if blk == nil {
					break
				}
				for _, p := range blk {
					if p.FDT > table[j] {
						table[j] = p.FDT
					}
				}
			}
		}
		ix.maxFDT = table
	})
	return ix.maxFDT[i]
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
func (ix *Index) SizeBytes() uint64 { return ix.postings }

// DictSizeBytes approximates the dictionary ("vocabulary") size: the
// quantity a CV receptionist must store per collection.
func (ix *Index) DictSizeBytes() uint64 {
	var n uint64
	for _, e := range ix.entries {
		n += uint64(len(e.term)) + 8 // term bytes + f_t + offset bookkeeping
	}
	return n
}
