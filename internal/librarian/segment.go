package librarian

import (
	"fmt"
	"math"
	"sort"
	"sync"

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

// segment is one immutable slice of the collection. base is the global id
// of the segment's local document 0; docs is its document count.
type segment struct {
	engine *search.Engine
	store  *store.Store
	base   uint32
	docs   uint32
}

// buildSegment indexes docs and compresses them under model into a segment —
// MG's second pass, for Build and for every ingested batch — in one scan per
// document: AppendWords splits it once, the index builder counts the spans'
// term ids and the coder encodes the same spans. Each distinct raw word is
// analysed, interned and looked up in the model once per call, in a memo that
// dies with the call.
func buildSegment(name string, docs []store.Document, analyzer *textproc.Analyzer, skip uint32, model *huffman.TextModel) (*segment, error) {
	type word struct {
		term, sym uint32
		indexed   bool // false for a word with no term, such as a stopword
	}
	ib := index.NewBuilder(index.WithSkipInterval(skip))
	memo := make(map[string]word)
	var spans []textproc.WordSpan
	var ids, syms []uint32
	st, err := store.Assemble(model, docs, func(i int) ([]byte, error) {
		var tail string
		spans, tail = textproc.AppendWords(spans[:0], docs[i].Text)
		ids, syms = ids[:0], syms[:0]
		for _, s := range spans {
			w, ok := memo[s.Word]
			if !ok {
				var term string
				if term, w.indexed = analyzer.Term(s.Word); w.indexed {
					w.term = ib.TermID(term)
				}
				w.sym = model.WordSymbol(s.Word)
				memo[s.Word] = w
			}
			if w.indexed {
				ids = append(ids, w.term)
			}
			syms = append(syms, w.sym)
		}
		ib.AddIDs(ids)
		return model.CompressSpans(spans, syms, tail)
	})
	if err != nil {
		return nil, fmt.Errorf("librarian %q: build store: %w", name, err)
	}
	ix, err := ib.Build()
	if err != nil {
		return nil, fmt.Errorf("librarian %q: build index: %w", name, err)
	}
	return &segment{engine: search.NewEngine(ix, analyzer), store: st, docs: st.NumDocs()}, nil
}

// manifest is one published snapshot of the collection. It is immutable
// after publication; the lazily-materialised merged view (whole-collection
// segment) and the vocabulary totals are memoised per manifest behind
// sync.Once.
type manifest struct {
	lib   *Librarian
	segs  []*segment    // ascending base, tiling [0, total)
	parts []search.Part // the segments' engines and bases, as search takes them
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
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].base > id }) - 1
	return m.segs[i]
}

// rank and score evaluate over the segments as one collection: search
// analyses and weights the query once — CN/MS weights from f_t summed over
// every segment and N the manifest total, which in the paper's cosine
// measure is all the collection dependence there is — and each segment
// evaluates it into one result, so the ranking and every score equal those of
// a single index built over the whole collection.
func (m *manifest) rank(scratch *search.Scratch, q *protocol.RankQuery) protocol.Message {
	eval := search.Evaluator(q.Evaluator)
	if !eval.Valid() {
		return &protocol.ErrorReply{Message: fmt.Sprintf("unknown evaluator %d", q.Evaluator)}
	}
	return evalReply(search.RankParts(nil, scratch, m.parts, q.Query, int(q.K), q.Weights, eval))
}

func (m *manifest) score(scratch *search.Scratch, q *protocol.ScoreDocs) protocol.Message {
	return evalReply(search.ScoreParts(scratch, m.parts, q.Query, q.Docs, q.Weights, int(q.K)))
}

// boolean parses the expression once, with the librarian's one analyser,
// and evaluates it over the segments as one collection.
func (m *manifest) boolean(q *protocol.BooleanQuery) protocol.Message {
	bq, err := m.segs[0].engine.ParseBoolean(q.Expr)
	if err != nil {
		return &protocol.ErrorReply{Message: err.Error()}
	}
	docs, stats := search.BooleanParts(m.parts, bq)
	return &protocol.BooleanReply{Docs: docs, Stats: stats}
}

// indexes returns the segments' indexes in base order.
func (m *manifest) indexes() []*index.Index {
	ixs := make([]*index.Index, len(m.segs))
	for i, sg := range m.segs {
		ixs[i] = sg.engine.Index()
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

func (m *manifest) hello(granted protocol.Features) protocol.Message {
	m.initStats()
	var ixBytes, storeBytes uint64
	for _, sg := range m.segs {
		ixBytes += sg.engine.Index().SizeBytes()
		storeBytes += sg.store.CompressedSize()
	}
	return &protocol.HelloReply{
		Name:       m.lib.name,
		NumDocs:    m.total,
		NumTerms:   m.numTerms,
		IndexBytes: ixBytes,
		VocabBytes: m.dictBytes,
		StoreBytes: storeBytes,
		Features:   granted,
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
		title, err := sg.store.Title(id - sg.base)
		if err != nil {
			return protocol.DocBlob{}, err
		}
		data, err := sg.store.FetchCompressed(id - sg.base)
		if err != nil {
			return protocol.DocBlob{}, err
		}
		return protocol.DocBlob{Doc: id, Title: title, Data: append([]byte(nil), data...), Compressed: true}, nil
	}
	doc, err := sg.store.Fetch(id - sg.base)
	return protocol.DocBlob{Doc: id, Title: doc.Title, Data: []byte(doc.Text)}, err
}

// shipIndex answers CI set-up's IndexRequest: each segment's lists grouped
// into the requested groups and folded segment by segment, summing a group two
// segments share, so no merged index is built and nothing outlives the reply.
// The reply's groups are numbered from Lo = Base/G, so local document d is in
// its group (Base mod G + d)/G.
func (m *manifest) shipIndex(q *protocol.IndexRequest) protocol.Message {
	if q.G == 0 || uint64(q.Base)+uint64(m.total) > math.MaxUint32 {
		return &protocol.ErrorReply{Message: fmt.Sprintf("index request: group size %d, base %d for %d documents", q.G, q.Base, m.total)}
	}
	reply := &protocol.IndexReply{}
	reply.Lo, reply.Hi = protocol.GroupRange(q.Base, m.total, q.G)
	srcs := make([]index.GroupSource, len(m.segs))
	for i, sg := range m.segs {
		srcs[i] = sg.engine.Index().Groups(q.Base%q.G+sg.base, q.G)
	}
	if err := index.FoldGroups(srcs, protocol.NewListWriter(reply).Append); err != nil {
		return &protocol.ErrorReply{Message: fmt.Sprintf("group index: %v", err)}
	}
	return reply
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
			stores[i], offs[i] = sg.store, sg.base
		}
		var ix *index.Index
		if ix, m.viewErr = index.Merge(m.indexes(), offs, m.total, index.WithSkipInterval(m.lib.skip)); m.viewErr != nil {
			return
		}
		var st *store.Store
		if st, m.viewErr = store.Concat(stores); m.viewErr == nil {
			m.view = &segment{engine: search.NewEngine(ix, m.lib.analyzer), store: st, docs: st.NumDocs()}
		}
	})
	return m.view, m.viewErr
}
