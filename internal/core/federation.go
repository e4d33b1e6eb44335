package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"teraphim/internal/huffman"
	"teraphim/internal/search"
	"teraphim/internal/selection"
	"teraphim/internal/textproc"
)

// libMeta is the federation's knowledge of one librarian: identity, global
// numbering and collection statistics. It is written once during NewPool's
// Hello exchange and read-only thereafter, so queries may share it freely.
type libMeta struct {
	name    string
	idx     int // position in Federation.libs (global numbering order)
	numDocs uint32
	offset  uint32 // global id of this librarian's local doc 0
}

// vocabState is the outcome of one SetupVocabulary exchange: the merged
// global term statistics, each librarian's own vocabulary (indexed like
// Federation.libs), and the collection-selection index derived from them.
// A fresh state is built off to the side and installed atomically, so
// concurrent queries always see either the previous complete vocabulary or
// the new one — never a mix; selection scores and term weights therefore
// always come from the same setup exchange.
type vocabState struct {
	globalFT map[string]uint32
	perLib   []map[string]uint32 // term -> local f_t, per librarian
	sel      *selection.Index    // CORI scores over perLib, for top-R fan-out
}

// modelSet maps librarian name to its document-decompression model.
type modelSet map[string]*huffman.TextModel

// Federation is the receptionist's shared, slowly-changing state: global
// document numbering, the merged vocabulary, Huffman text models and the
// grouped central index. Its Pool builds it (NewPool's Hello exchange, then
// the Setup* exchanges) and hands it out through Pool.Federation; any number
// of concurrent queries read it — the split the paper's §5 "multiple users at
// capacity" regime requires, where expensive collection metadata is gathered
// once and per-query state stays cheap.
//
// All fields are either immutable after construction or installed through
// atomic pointers, so a Federation is safe for concurrent use.
type Federation struct {
	analyzer  *textproc.Analyzer
	libs      []*libMeta
	byName    map[string]*libMeta
	totalDocs uint32

	vocab   atomic.Pointer[vocabState]
	models  atomic.Pointer[modelSet]
	central atomic.Pointer[GroupedIndex]

	// epoch counts installations of central state (vocabulary, models,
	// central index). The result cache stamps entries with it, so a setup
	// re-run invalidates every answer computed under the old state without
	// walking the cache.
	epoch atomic.Uint64
}

// Epoch returns the federation's setup epoch: it increases on every
// SetupVocabulary / SetupModels / SetupCentralIndex installation. A cached
// query answer is valid only for the epoch it was computed under.
func (f *Federation) Epoch() uint64 { return f.epoch.Load() }

// Librarians returns the librarian names in global-numbering order.
func (f *Federation) Librarians() []string {
	names := make([]string, len(f.libs))
	for i, li := range f.libs {
		names[i] = li.name
	}
	return names
}

// TotalDocs returns the number of documents across all librarians.
func (f *Federation) TotalDocs() uint32 { return f.totalDocs }

// ResolveGlobal converts a global document number to (librarian, local id).
// CI expansion calls this once per candidate document, so it binary-searches
// the offset table (librarians are stored in global-numbering order) rather
// than scanning it.
func (f *Federation) ResolveGlobal(global uint32) (string, uint32, error) {
	li, err := f.owner(global)
	if err != nil {
		return "", 0, err
	}
	return li.name, global - li.offset, nil
}

// owner returns the librarian holding a global document number.
func (f *Federation) owner(global uint32) (*libMeta, error) {
	if global >= f.totalDocs {
		return nil, fmt.Errorf("core: global doc %d outside collection of %d", global, f.totalDocs)
	}
	// The last librarian whose offset is <= global owns it: any earlier
	// librarian with the same offset is empty, and the next one starts past
	// global.
	i := sort.Search(len(f.libs), func(i int) bool { return f.libs[i].offset > global }) - 1
	return f.libs[i], nil
}

// GlobalWeights computes the merged-vocabulary query weights
// w_{q,t} = log(f_{q,t}+1)·log(N/f_t+1) with N and f_t global — the
// search.CollectionWeight every librarian and the MS baseline weigh with, so
// CV scores are theirs bit for bit. Requires SetupVocabulary.
func (f *Federation) GlobalWeights(query string) (map[string]float64, error) {
	vs := f.vocab.Load()
	if vs == nil {
		return nil, errors.New("core: SetupVocabulary has not run")
	}
	terms := f.analyzer.Terms(nil, query)
	freqs := make(map[string]uint32, len(terms))
	for _, t := range terms {
		freqs[t]++
	}
	weights := make(map[string]float64, len(freqs))
	for t, fqt := range freqs {
		if w := search.CollectionWeight(fqt, vs.globalFT[t], f.totalDocs); w > 0 {
			weights[t] = w
		}
	}
	return weights, nil
}

// SelectLibrarians ranks every librarian's likelihood of holding answers
// for query (CORI over the per-librarian document frequencies gathered by
// SetupVocabulary) and returns the names of the top r, in global-numbering
// order. r <= 0 selects none; r >= the fleet size selects all (still
// ranked, so callers can observe the full ordering cost). Requires
// SetupVocabulary.
//
// This is the inspection surface of the Options.TopR query path: a query
// with TopR = r is shipped to exactly the librarians returned here (CV
// additionally intersects with its nonzero-vocabulary eligibility filter;
// CI intersects with the librarians owning expanded candidates).
func (f *Federation) SelectLibrarians(query string, r int) ([]string, error) {
	vs := f.vocab.Load()
	if vs == nil || vs.sel == nil {
		return nil, ErrSelectionNeedsVocabulary
	}
	terms := f.analyzer.Terms(nil, query)
	picked := vs.sel.Top(terms, nil, r)
	names := make([]string, len(picked))
	for i, idx := range picked {
		names[i] = f.libs[idx].name
	}
	return names, nil
}

// VocabularySize returns the number of distinct terms in the merged
// vocabulary and its approximate storage cost in bytes. Zeroes before
// SetupVocabulary has run.
func (f *Federation) VocabularySize() (terms int, bytes uint64) {
	vs := f.vocab.Load()
	if vs == nil {
		return 0, 0
	}
	for t := range vs.globalFT {
		bytes += uint64(len(t)) + 8
	}
	return len(vs.globalFT), bytes
}

// SetupCentralIndex installs the grouped central index for CI queries. The
// grouped index must have been built over the same documents in the same
// global order (see BuildGrouped); this is the offline "merge the
// subcollection indexes" preprocessing the paper describes. The index is
// installed atomically: in-flight CI queries complete against whichever
// index they started with.
func (f *Federation) SetupCentralIndex(g *GroupedIndex) error {
	if g == nil {
		return errors.New("core: nil grouped index")
	}
	if g.totalDocs != f.totalDocs {
		return fmt.Errorf("core: grouped index covers %d docs, receptionist %d", g.totalDocs, f.totalDocs)
	}
	f.central.Store(g)
	f.epoch.Add(1)
	return nil
}

// installVocab publishes a freshly merged vocabulary and bumps the epoch so
// cached CV/CI answers computed under the old statistics become stale.
func (f *Federation) installVocab(vs *vocabState) {
	f.vocab.Store(vs)
	f.epoch.Add(1)
}

// installModels publishes the decompression models and bumps the epoch
// (cached fetched text could otherwise outlive a model change).
func (f *Federation) installModels(ms *modelSet) {
	f.models.Store(ms)
	f.epoch.Add(1)
}

// CentralIndex returns the installed grouped central index, or nil before
// SetupCentralIndex / SetupCentralIndexRemote has run.
func (f *Federation) CentralIndex() *GroupedIndex { return f.central.Load() }

// modelFor returns the named librarian's document-decompression model, or
// nil before SetupModels has run.
func (f *Federation) modelFor(name string) *huffman.TextModel {
	ms := f.models.Load()
	if ms == nil {
		return nil
	}
	return (*ms)[name]
}
