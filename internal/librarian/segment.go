package librarian

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"teraphim/internal/bitio"
	"teraphim/internal/huffman"
	"teraphim/internal/index"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// A librarian's collection is LSM-shaped: a sequence of immutable segments,
// each a complete mini-collection (index + compressed store), tiled over the
// global doc-id space by per-segment offset bases. Queries fan in over the
// segments of one atomically-published manifest; ingest appends fresh
// segments; background merges compact adjacent runs — an exact index merge
// over concatenated stores, every store being coded under the librarian's one
// text model. Nothing in a published manifest ever mutates, which is what
// lets the serving loops dispatch every frame — even pipelined, concurrent
// frames — against a consistent snapshot. A built or loaded collection is the
// one-segment case of the same loops.

// segment is one immutable slice of the collection: an index part — its
// index and the global id of its local document 0 — and its store. Its text
// was analysed with the librarian's analyser, which queries share.
type segment struct {
	search.Part
	store *store.Store
}

// A lexicon numbers a segment's tokens as its scan meets them, then yields
// the model that codes them: a huffman.Trainer, which learns the model from
// the counts (Build, MG's first pass), or the librarian's frozen model.
type lexicon interface {
	SepSymbol(sep string) uint32
	WordSymbol(word string) uint32
	Model() (*huffman.TextModel, error)
}

// buildSegment indexes docs and codes them under the model lex yields. One
// scan per document splits it (AppendWords), has lex number each span's tokens
// onto a symbol stream and records its words' term ids; then each document is
// inverted and coded, apart from the scan so that lex's tables stay in cache.
func buildSegment(name string, docs []store.Document, analyzer *textproc.Analyzer, skip uint32, lex lexicon) (*segment, error) {
	const stopped = math.MaxUint32 // the term of a word with none, such as a stopword
	ib := index.NewBuilder(index.WithSkipInterval(skip))
	var spans []textproc.WordSpan
	var terms []uint32                   // by word symbol: 1 + term id, stopped, or 0 if not met yet
	var esc []string                     // the escaped tokens, in stream order
	escTerms := make(map[string]*uint32) // an escaped word has no symbol: its term is found by itself
	text := 0
	for _, d := range docs {
		text += len(d.Text)
	}
	syms := make([]uint32, 0, text/4+len(docs)) // about a span's two symbols per eight bytes of text
	ids := make([]uint32, 0, text/8)            // the indexed words' term ids
	ends := make([][2]int, 1, len(docs)+1)      // where document i's symbols and term ids end
	record := func(tok string, sym uint32) uint32 {
		if sym == huffman.Escape {
			esc = append(esc, tok)
		}
		syms = append(syms, sym)
		return sym
	}
	for _, d := range docs {
		var tail string
		spans, tail = textproc.AppendWords(spans[:0], d.Text)
		for _, s := range spans {
			record(s.Sep, lex.SepSymbol(s.Sep))
			sym := record(s.Word, lex.WordSymbol(s.Word))
			if int(sym) >= len(terms) {
				terms = append(terms, make([]uint32, int(sym)+1-len(terms))...)
			}
			t := &terms[sym]
			if sym == huffman.Escape {
				if t = escTerms[s.Word]; t == nil {
					t = new(uint32)
					escTerms[s.Word] = t
				}
			}
			if *t == 0 {
				*t = stopped
				if term, ok := analyzer.Term(s.Word); ok {
					*t = 1 + ib.TermID(term)
				}
			}
			if *t != stopped {
				ids = append(ids, *t-1)
			}
		}
		record(tail, lex.SepSymbol(tail))
		ends = append(ends, [2]int{len(syms), len(ids)})
	}
	model, err := lex.Model()
	if err != nil {
		return nil, fmt.Errorf("librarian %q: train model: %w", name, err)
	}
	var w bitio.Writer
	st, err := store.Assemble(model, docs, func(i int) (blob []byte, err error) {
		from, to := ends[i], ends[i+1]
		ib.AddIDs(ids[from[1]:to[1]])
		blob, esc, err = model.CompressSymbols(&w, syms[from[0]:to[0]], esc)
		return blob, err
	})
	if err != nil {
		return nil, fmt.Errorf("librarian %q: build store: %w", name, err)
	}
	ix, err := ib.Build()
	if err != nil {
		return nil, fmt.Errorf("librarian %q: build index: %w", name, err)
	}
	return &segment{Part: search.Part{Index: ix}, store: st}, nil
}

// manifest is one published snapshot of the collection. It is immutable
// after publication; the lazily-materialised merged view (whole-collection
// segment) and the vocabulary totals are memoised per manifest behind
// sync.Once.
type manifest struct {
	lib   *Librarian
	segs  []*segment    // ascending base, tiling [0, total)
	parts []search.Part // the segments' indexes and bases, as search takes them
	total uint32

	statsOnce sync.Once
	numTerms  uint32
	dictBytes uint64

	viewOnce sync.Once
	view     *segment
	viewErr  error
}

// locate returns the segment holding global doc id — the ResolveGlobal
// binary-search idiom over segment bases. The caller checks id < m.total.
func (m *manifest) locate(id uint32) *segment {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].Base > id }) - 1
	return m.segs[i]
}

// rank and score evaluate over the segments as one collection: search
// analyses and weights the query once — CN/MS weights from f_t summed over
// every segment and N the manifest total, which in the paper's cosine
// measure is all the collection dependence there is — and each segment
// evaluates it into one result, so the ranking and every score equal those of
// a single index built over the whole collection. The exact kernel is the
// one evaluator; any other value in RankQuery's evaluator byte is refused.
func (m *manifest) rank(scratch *search.Scratch, q *protocol.RankQuery) protocol.Message {
	if q.Evaluator != 0 {
		return &protocol.ErrorReply{Message: fmt.Sprintf("unknown evaluator %d", q.Evaluator)}
	}
	return evalReply(search.RankParts(nil, scratch, m.parts, m.lib.analyzer, q.Query, int(q.K), q.Weights))
}

func (m *manifest) score(scratch *search.Scratch, q *protocol.ScoreDocs) protocol.Message {
	return evalReply(search.ScoreParts(scratch, m.parts, m.lib.analyzer, q.Query, q.Docs, q.Weights, int(q.K)))
}

// boolean parses the expression once, with the librarian's one analyser,
// and evaluates it over the segments as one collection.
func (m *manifest) boolean(q *protocol.BooleanQuery) protocol.Message {
	docs, stats, err := search.BooleanParts(m.parts, m.lib.analyzer, q.Expr)
	if err != nil {
		return &protocol.ErrorReply{Message: err.Error()}
	}
	return &protocol.BooleanReply{Docs: docs, Stats: stats}
}

// indexes returns the segments' indexes in base order.
func (m *manifest) indexes() []*index.Index {
	ixs := make([]*index.Index, len(m.segs))
	for i, sg := range m.segs {
		ixs[i] = sg.Index
	}
	return ixs
}

// vocab merges the segments' lexicographic term lists, summing f_t.
func (m *manifest) vocab() protocol.Message {
	ixs := m.indexes()
	terms := make([]protocol.TermStat, 0, ixs[0].NumTerms())
	index.EachTerm(ixs, func(term string, ft uint32) {
		terms = append(terms, protocol.TermStat{Term: term, FT: ft})
	})
	return &protocol.VocabReply{Terms: terms}
}

// initStats counts the distinct terms and their dictionary bytes.
func (m *manifest) initStats() {
	m.statsOnce.Do(func() {
		index.EachTerm(m.indexes(), func(term string, _ uint32) {
			m.numTerms++
			m.dictBytes += uint64(len(term)) + 8 // as index.DictSizeBytes
		})
	})
}

func (m *manifest) hello() protocol.Message {
	m.initStats()
	var ixBytes, storeBytes uint64
	for _, sg := range m.segs {
		ixBytes += sg.Index.SizeBytes()
		storeBytes += sg.store.CompressedSize()
	}
	return &protocol.HelloReply{
		Name:       m.lib.name,
		NumDocs:    m.total,
		NumTerms:   m.numTerms,
		IndexBytes: ixBytes,
		VocabBytes: m.dictBytes,
		StoreBytes: storeBytes,
		Version:    protocol.Version,
	}
}

func (m *manifest) fetchOne(id uint32, compressed bool) (protocol.DocBlob, error) {
	if id >= m.total {
		return protocol.DocBlob{}, fmt.Errorf("store: doc %d outside collection of %d", id, m.total)
	}
	sg := m.locate(id)
	if compressed {
		// Every segment is coded under the model ModelRequest advertises:
		// the stored blob ships as it is.
		title, err := sg.store.Title(id - sg.Base)
		if err != nil {
			return protocol.DocBlob{}, err
		}
		data, err := sg.store.FetchCompressed(id - sg.Base)
		if err != nil {
			return protocol.DocBlob{}, err
		}
		return protocol.DocBlob{Doc: id, Title: title, Data: append([]byte(nil), data...), Compressed: true}, nil
	}
	doc, err := sg.store.Fetch(id - sg.Base)
	return protocol.DocBlob{Doc: id, Title: doc.Title, Data: []byte(doc.Text)}, err
}

// shipIndex answers CI set-up's IndexRequest: each segment's lists of the
// requested part's terms grouped into the requested groups and folded segment
// by segment, summing a group two segments share, so no merged index is built
// and nothing outlives the reply. The reply's groups are numbered from
// Lo = Base/G, so local document d is in its group (Base mod G + d)/G.
func (m *manifest) shipIndex(q *protocol.IndexRequest) protocol.Message {
	if q.G == 0 || uint64(q.Base)+uint64(m.total) > math.MaxUint32 || (q.Parts > 1 && q.Part >= q.Parts) {
		return &protocol.ErrorReply{Message: fmt.Sprintf("index request: group size %d, base %d for %d documents, part %d of %d",
			q.G, q.Base, m.total, q.Part, q.Parts)}
	}
	reply := &protocol.IndexReply{}
	reply.Lo, reply.Hi = protocol.GroupRange(q.Base, m.total, q.G)
	from, to, ok := m.partTerms(q.Part, q.Parts)
	if !ok {
		return reply
	}
	srcs := make([]index.GroupSource, len(m.segs))
	for i, sg := range m.segs {
		srcs[i] = sg.Index.Groups(q.Base%q.G+sg.Base, q.G, from, to)
	}
	if err := index.FoldGroups(srcs, protocol.NewListWriter(reply).Append); err != nil {
		return &protocol.ErrorReply{Message: fmt.Sprintf("group index: %v", err)}
	}
	return reply
}

// partTerms returns the terms [from, to) of part p of n (to == "": no upper
// bound): those whose preceding cumulative f_t, over the k-way-merged
// dictionary of the segments, falls in [p·T/n, (p+1)·T/n), T being the
// segments' postings, which is the sum of every f_t. ok is false when no
// term's does. n ≤ 1 is the whole dictionary.
func (m *manifest) partTerms(p, n uint32) (from, to string, ok bool) {
	if n <= 1 {
		return "", "", true
	}
	ixs := m.indexes()
	var total, cum uint64
	for _, ix := range ixs {
		total += ix.NumPostings()
	}
	lo, hi := uint64(p)*total/uint64(n), uint64(p+1)*total/uint64(n)
	index.EachTerm(ixs, func(term string, ft uint32) {
		if !ok && cum >= lo {
			from, ok = term, true
		}
		if to == "" && cum >= hi {
			to = term // from too when [lo, hi) held no sum: Groups yields nothing
		}
		cum += uint64(ft)
	})
	return from, to, ok
}

// merged collapses the manifest into one segment (once per manifest): the
// merged index over the concatenation of the segments' stores — all coded
// under the librarian's one model, so no document is read, decompressed or
// compressed. Engine and Store expose it, Save writes it, and a background
// merge or Compact publishes it for the manifest of just the segments being
// folded. The sole segment of a one-segment manifest is returned as it is.
func (m *manifest) merged() (*segment, error) {
	m.viewOnce.Do(func() {
		if len(m.segs) == 1 {
			m.view = m.segs[0]
			return
		}
		stores := make([]*store.Store, len(m.segs))
		offs := make([]uint32, len(m.segs))
		for i, sg := range m.segs {
			stores[i], offs[i] = sg.store, sg.Base
		}
		var ix *index.Index
		if ix, m.viewErr = index.Merge(m.indexes(), offs, m.total, index.WithSkipInterval(m.lib.skip)); m.viewErr != nil {
			return
		}
		var st *store.Store
		if st, m.viewErr = store.Concat(stores); m.viewErr == nil {
			m.view = &segment{Part: search.Part{Index: ix}, store: st}
		}
	})
	return m.view, m.viewErr
}
