package librarian

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"

	"teraphim/internal/huffman"
	"teraphim/internal/index"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
)

// An UpdatableLibrarian's collection is LSM-shaped: a sequence of immutable
// segments, each a complete mini-collection (index + compressed store) built
// by the ordinary Build machinery, tiled over the global doc-id space by
// per-segment offset bases. Queries fan in over the segments of one
// atomically-published manifest; ingest appends fresh segments; background
// merges compact adjacent runs. Nothing in a published manifest ever
// mutates, which is what lets the serving loops dispatch every frame — even
// pipelined, concurrent frames — against a consistent snapshot.

// segment is one immutable slice of the collection. base is the global id
// of the segment's local document 0; docs is its document count. The
// Librarian inside is a full single-collection librarian, reused for its
// engine and store.
type segment struct {
	lib  *Librarian
	base uint32
	docs uint32
}

// manifest is one published snapshot of the segmented collection. It is
// immutable after publication; the lazily-materialised merged views
// (whole-collection index, whole-collection librarian, vocabulary totals)
// are memoised per manifest behind sync.Once.
//
// model is the manifest's transfer model: the Huffman model advertised via
// ModelRequest and used to (re)compress documents shipped with
// FetchDocs{Compressed}. Each segment's store has its own model, so a
// multi-segment fetch transcodes through the transfer model (the escape
// mechanism makes any model able to code any text); a fresh Update installs
// its store's own model so the single-segment path ships stored blobs
// byte-identically, exactly like a plain Librarian.
type manifest struct {
	name     string
	analyzer *textproc.Analyzer
	skip     int
	segs     []*segment // ascending base, tiling [0, total)
	total    uint32
	model    *huffman.TextModel

	statsOnce sync.Once
	numTerms  uint32
	dictBytes uint64

	ixOnce sync.Once
	ix     *index.Index
	ixErr  error

	matOnce sync.Once
	mat     *Librarian
	matErr  error
}

func (m *manifest) builderOpts() []index.BuilderOption {
	switch {
	case m.skip > 0:
		return []index.BuilderOption{index.WithSkipInterval(uint32(m.skip))}
	case m.skip < 0:
		return []index.BuilderOption{index.WithSkipInterval(0)}
	}
	return nil
}

// single reports whether the manifest is a lone segment covering the whole
// collection — the shape every compatibility path (Update, initial build)
// produces, served through the same code as a plain Librarian for exact
// behavioural parity.
func (m *manifest) single() bool { return len(m.segs) == 1 }

// locate returns the segment holding global doc id — the ResolveGlobal
// binary-search idiom over segment bases. The caller checks id < m.total.
func (m *manifest) locate(id uint32) *segment {
	i := sort.Search(len(m.segs), func(i int) bool { return m.segs[i].base > id }) - 1
	return m.segs[i]
}

func (m *manifest) locateIdx(id uint32) int {
	return sort.Search(len(m.segs), func(i int) bool { return m.segs[i].base > id }) - 1
}

// localWeights computes the collection-wide w_{q,t} map for a query: f_t
// summed over every segment, N the manifest total. Feeding these to each
// segment engine as explicit weights (the CV mechanism) makes per-segment
// scores — and therefore the fan-in's merged ranking — identical to a
// single index built over the whole collection, because in the paper's
// cosine measure all collection dependence lives in w_{q,t}. Returns ok
// false when the query has no indexable terms (the ErrEmptyQuery case).
func (m *manifest) localWeights(query string) (map[string]float64, bool) {
	terms := m.analyzer.Terms(nil, query)
	if len(terms) == 0 {
		return nil, false
	}
	freqs := make(map[string]uint32, len(terms))
	for _, t := range terms {
		freqs[t]++
	}
	weights := make(map[string]float64, len(freqs))
	for t, fqt := range freqs {
		var ft uint64
		for _, sg := range m.segs {
			ft += uint64(sg.lib.engine.Index().TermFreq(t))
		}
		if ft == 0 {
			continue
		}
		weights[t] = search.CollectionWeight(fqt, uint32(ft), m.total)
	}
	return weights, true
}

func (m *manifest) rank(scratch *search.Scratch, q *protocol.RankQuery) protocol.Message {
	if m.single() {
		return m.segs[0].lib.rank(scratch, q)
	}
	k := int(q.K)
	if k <= 0 {
		return &protocol.ErrorReply{Message: fmt.Sprintf("search: k must be positive, got %d", k)}
	}
	eval := search.Evaluator(q.Evaluator)
	if !eval.Valid() {
		return &protocol.ErrorReply{Message: fmt.Sprintf("unknown evaluator %d", q.Evaluator)}
	}
	weights := q.Weights
	if weights == nil {
		var ok bool
		if weights, ok = m.localWeights(q.Query); !ok {
			return &protocol.RankReply{}
		}
	}
	var all []search.Result
	var stats search.Stats
	for _, sg := range m.segs {
		if sg.docs == 0 {
			continue
		}
		res, st, err := sg.lib.engine.RankWithEval(scratch, q.Query, k, weights, eval)
		if err != nil {
			if errors.Is(err, search.ErrEmptyQuery) {
				return &protocol.RankReply{Stats: stats}
			}
			return &protocol.ErrorReply{Message: err.Error()}
		}
		stats.Add(st)
		for i := range res {
			res[i].Doc += sg.base
		}
		all = append(all, res...)
	}
	// Each segment returned its exact local top k; the global top k is the
	// best k of the union. SortResults orders best-first with ties broken
	// by ascending global doc id — the same order topK extraction produces
	// on a single index.
	search.SortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return rankReply(all, stats)
}

func (m *manifest) score(scratch *search.Scratch, q *protocol.ScoreDocs) protocol.Message {
	if m.single() {
		return m.segs[0].lib.score(scratch, q)
	}
	weights := q.Weights
	if weights == nil {
		var ok bool
		if weights, ok = m.localWeights(q.Query); !ok {
			return &protocol.RankReply{}
		}
	} else if len(m.analyzer.Terms(nil, q.Query)) == 0 {
		// Parity with the single-index evaluator: an unindexable query is
		// reported (as an empty ranking) before any doc-id validation.
		return &protocol.RankReply{}
	}
	// Partition the nominated docs by segment, keeping request positions so
	// the reply is reassembled in requested order like ScoreDocs demands.
	segDocs := make([][]uint32, len(m.segs))
	segPos := make([][]int, len(m.segs))
	for i, d := range q.Docs {
		if d >= m.total {
			return &protocol.ErrorReply{Message: fmt.Sprintf(
				"search: score doc %d: index: doc %d outside collection of %d", d, d, m.total)}
		}
		si := m.locateIdx(d)
		segDocs[si] = append(segDocs[si], d-m.segs[si].base)
		segPos[si] = append(segPos[si], i)
	}
	results := make([]search.Result, len(q.Docs))
	var stats search.Stats
	for si, docs := range segDocs {
		if len(docs) == 0 {
			continue
		}
		sg := m.segs[si]
		res, st, err := sg.lib.engine.ScoreDocsWith(scratch, q.Query, docs, weights)
		if err != nil {
			if errors.Is(err, search.ErrEmptyQuery) {
				return &protocol.RankReply{Stats: stats}
			}
			return &protocol.ErrorReply{Message: err.Error()}
		}
		stats.Add(st)
		for j, r := range res {
			results[segPos[si][j]] = search.Result{Doc: r.Doc + sg.base, Score: r.Score}
		}
	}
	return scoreReply(results, stats, q.K)
}

func (m *manifest) boolean(q *protocol.BooleanQuery) protocol.Message {
	if m.single() {
		return m.segs[0].lib.boolean(q)
	}
	var docs []uint32
	var stats search.Stats
	for _, sg := range m.segs {
		bq, err := sg.lib.engine.ParseBoolean(q.Expr)
		if err != nil {
			return &protocol.ErrorReply{Message: err.Error()}
		}
		res, st := sg.lib.engine.EvaluateBoolean(bq)
		stats.Add(st)
		// Per-segment evaluation composes exactly: NOT complements within
		// each segment's range, and concatenation in base order restores the
		// global ascending-id order the single-index evaluator returns.
		for _, d := range res {
			docs = append(docs, d+sg.base)
		}
	}
	return &protocol.BooleanReply{Docs: docs, Stats: stats}
}

func (m *manifest) vocab() protocol.Message {
	if m.single() {
		return m.segs[0].lib.vocab()
	}
	fts := make(map[string]uint32)
	for _, sg := range m.segs {
		sg.lib.engine.Index().Terms(func(term string, ft uint32) bool {
			fts[term] += ft
			return true
		})
	}
	terms := make([]string, 0, len(fts))
	for t := range fts {
		terms = append(terms, t)
	}
	sort.Strings(terms) // single-index replies are lexicographic; match them
	reply := &protocol.VocabReply{Terms: make([]protocol.TermStat, 0, len(terms))}
	for _, t := range terms {
		reply.Terms = append(reply.Terms, protocol.TermStat{Term: t, FT: fts[t]})
	}
	return reply
}

func (m *manifest) initStats() {
	m.statsOnce.Do(func() {
		seen := make(map[string]struct{})
		for _, sg := range m.segs {
			sg.lib.engine.Index().Terms(func(term string, ft uint32) bool {
				if _, ok := seen[term]; !ok {
					seen[term] = struct{}{}
					m.dictBytes += uint64(len(term)) + 8
				}
				return true
			})
		}
		m.numTerms = uint32(len(seen))
	})
}

func (m *manifest) hello(granted protocol.Features) protocol.Message {
	if m.single() {
		return m.segs[0].lib.hello(granted)
	}
	m.initStats()
	var ixBytes, storeBytes uint64
	for _, sg := range m.segs {
		ixBytes += sg.lib.engine.Index().SizeBytes()
		storeBytes += sg.lib.docs.CompressedSize()
	}
	return &protocol.HelloReply{
		Name:       m.name,
		NumDocs:    m.total,
		NumTerms:   m.numTerms,
		IndexBytes: ixBytes,
		VocabBytes: m.dictBytes,
		StoreBytes: storeBytes,
		Features:   granted,
	}
}

func (m *manifest) fetchOne(id uint32, compressed bool) (protocol.DocBlob, error) {
	// The fast path requires the stored blobs to be coded with the
	// manifest's transfer model — true for any manifest Update or the
	// constructor produced, not after a compaction retrained the store.
	if m.single() && m.segs[0].lib.docs.Model() == m.model {
		return m.segs[0].lib.fetchOne(id, compressed)
	}
	if id >= m.total {
		return protocol.DocBlob{}, fmt.Errorf("store: doc %d outside collection of %d", id, m.total)
	}
	sg := m.locate(id)
	doc, err := sg.lib.docs.Fetch(id - sg.base)
	if err != nil {
		return protocol.DocBlob{}, err
	}
	blob := protocol.DocBlob{Doc: id, Title: doc.Title, Compressed: compressed}
	if compressed {
		if blob.Data, err = m.model.CompressDoc(doc.Text); err != nil {
			return protocol.DocBlob{}, err
		}
	} else {
		blob.Data = []byte(doc.Text)
	}
	return blob, nil
}

func (m *manifest) modelReply() protocol.Message {
	return &protocol.ModelReply{Model: m.model.Marshal()}
}

// mergedIndex materialises (once per manifest) the whole-collection index by
// merging the segment indexes — index.Merge is exact, so the result is
// identical to indexing the concatenated collection directly.
func (m *manifest) mergedIndex() (*index.Index, error) {
	m.ixOnce.Do(func() {
		if m.single() {
			m.ix = m.segs[0].lib.engine.Index()
			return
		}
		subs := make([]*index.Index, len(m.segs))
		offs := make([]uint32, len(m.segs))
		for i, sg := range m.segs {
			subs[i] = sg.lib.engine.Index()
			offs[i] = sg.base
		}
		m.ix, m.ixErr = index.Merge(subs, offs, m.total, m.builderOpts()...)
	})
	return m.ix, m.ixErr
}

func (m *manifest) shipIndex() protocol.Message {
	if m.single() {
		return m.segs[0].lib.shipIndex()
	}
	ix, err := m.mergedIndex()
	if err != nil {
		return &protocol.ErrorReply{Message: fmt.Sprintf("serialise index: %v", err)}
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		return &protocol.ErrorReply{Message: fmt.Sprintf("serialise index: %v", err)}
	}
	return &protocol.IndexReply{Data: buf.Bytes()}
}

// materialize collapses the manifest into one ordinary Librarian (once per
// manifest): the merged index plus a store rebuilt from the segments'
// losslessly recovered documents. It backs the compatibility surface
// (Current/Engine) on multi-segment manifests; single-segment manifests
// return their librarian unchanged.
func (m *manifest) materialize() (*Librarian, error) {
	m.matOnce.Do(func() {
		if m.single() {
			m.mat = m.segs[0].lib
			return
		}
		ix, err := m.mergedIndex()
		if err != nil {
			m.matErr = fmt.Errorf("librarian %q: materialize index: %w", m.name, err)
			return
		}
		docs, err := m.allDocs()
		if err != nil {
			m.matErr = err
			return
		}
		st, err := store.Build(docs)
		if err != nil {
			m.matErr = fmt.Errorf("librarian %q: materialize store: %w", m.name, err)
			return
		}
		m.mat, m.matErr = New(m.name, search.NewEngine(ix, m.analyzer), st)
	})
	return m.mat, m.matErr
}

// allDocs recovers every document from the segment stores, in global id
// order (the stores are lossless, so no side copy of the text exists).
func (m *manifest) allDocs() ([]store.Document, error) {
	docs := make([]store.Document, 0, m.total)
	for _, sg := range m.segs {
		for id := uint32(0); id < sg.docs; id++ {
			d, err := sg.lib.docs.Fetch(id)
			if err != nil {
				return nil, fmt.Errorf("librarian %q: recover doc %d: %w", m.name, sg.base+id, err)
			}
			docs = append(docs, d)
		}
	}
	return docs, nil
}
