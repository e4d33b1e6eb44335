// Package teraphim is a pure-Go reimplementation of TERAPHIM, the
// distributed text-retrieval system of de Kretser, Moffat, Shimmin and
// Zobel, "Methodologies for Distributed Information Retrieval" (ICDCS
// 1998), built on an MG-style compressed-index search engine.
//
// # Architecture
//
// A collection is divided into subcollections, each managed by an
// independent Librarian: a mono-server engine holding a compressed inverted
// index, a table of document weights, and a compressed document store.
// A receptionist — a Pool, from ConnectPool — brokers user queries to the
// librarians and merges the returned rankings; several may serve one fleet.
// Three federated methodologies are implemented:
//
//   - Central Nothing (CN): the receptionist knows only the librarian
//     list; each librarian ranks with its own local statistics and the
//     receptionist merges scores at face value.
//   - Central Vocabulary (CV): the receptionist merges the librarians'
//     vocabularies once, then ships global term weights with each query;
//     result scores are identical to a monolithic system's.
//   - Central Index (CI): the receptionist holds a grouped central index
//     (groups of G adjacent documents indexed as pseudo-documents), ranks
//     groups, and asks librarians to score only the expanded candidates.
//
// # Quick start
//
//	docs := []teraphim.Document{{Title: "a", Text: "hello distributed world"}}
//	lib, _ := teraphim.BuildLibrarian("demo", docs)
//	ranking, _ := lib.Engine().Rank("distributed", 10, nil)
//	_ = ranking.Results // scored documents; ranking.Stats has the work done
//
// See examples/ for complete programs, including a federated deployment
// over TCP and a simulated wide-area network.
//
// # Observability
//
// Every Pool collects metrics (query counters per methodology, per-stage
// latency histograms, connection-pool gauges) on an obs-package registry —
// a private one by default, or a shared one via ReceptionistConfig.Metrics.
// ServeMetrics exposes one or more registries as a Prometheus /metrics
// endpoint plus net/http/pprof profiles; see README.md for the endpoint
// recipe and the metric name table. Queries accept a context through
// Pool.QueryContext and Pool.Boolean: cancellation aborts admission and slot
// waits, retry backoffs and in-flight reads promptly.
//
// # Overload protection
//
// Two opt-in mechanisms guard a receptionist under heavy concurrent
// traffic. ReceptionistConfig.Cache enables an LRU result cache keyed by
// (mode, normalized query, k, merge strategy, top-R): a repeat query is
// answered from memory with zero librarian round trips, and every entry is
// invalidated when setup state changes or InvalidateCache runs (wire it to
// Librarian.OnUpdate so cached answers never outlive the
// collection they were computed from). ReceptionistConfig.Admission bounds
// concurrent evaluation: beyond MaxInFlight running queries and MaxQueue
// waiters, requests fail fast with ErrOverloaded instead of stacking up
// until every deadline blows.
//
// # Streaming ingestion
//
// A Librarian grows its subcollection while serving. Ingest enqueues document batches onto a bounded queue (context-aware, failing
// with ErrIngestQueueFull under sustained backpressure); a background builder
// seals the batches into immutable segments, a backlog of them into one
// (group commit); a size-tiered policy merges segments so query fan-in
// stays logarithmic; Flush waits for visibility and
// surfaces asynchronous build errors; Compact folds everything to one
// segment on demand. Rankings over a segmented collection are exactly those
// of the equivalent single-segment collection. A librarian that never
// ingests starts no goroutine; that is all "static" means.
//
// # Replication and hedging
//
// ReceptionistConfig.Replicas gives a librarian several interchangeable
// endpoints serving the same subcollection. Each exchange is routed by a
// per-librarian router: power-of-two-choices over the healthy replicas
// (fewer in-flight exchanges wins), with passive health tracking — an
// endpoint failing three consecutive exchanges is ejected from routing and
// probed back in after half a second. The replica sets are fixed when the
// pool is built. Options.HedgeAfter additionally
// races a second replica when an exchange outlives a latency quantile of
// that librarian's recent history: the first reply wins, the loser is
// cancelled, and because replicas are interchangeable the result is
// bit-identical — hedging only cuts the tail. Trace.Hedges and the
// teraphim_hedge_*/teraphim_replica_* metric families account for all of it.
//
// # Wire
//
// Receptionist and librarian speak one wire version. Every connection opens
// with a Hello carrying it; after the reply, frames carry exchange tags, so
// one connection multiplexes many exchanges and replies arrive out of order.
// A librarian at another version fails ConnectPool, without a retry.
// Options.BatchWindow coalesces concurrent clients' rank-phase queries into
// one frame per librarian, and a rank reply carries only each librarian's
// best results plus, for Options.Fetch queries, their text, so such a query
// is one exchange per librarian. ReceptionistConfig.TwoRoundFetch restores
// the paper's protocol instead: every nominated score comes back and text is
// fetched in a second round.
//
// # Collection selection
//
// At hundreds of subcollections, shipping every query to every librarian
// is the scaling wall. Options.TopR narrows the fan-out: SetupVocabulary
// derives CORI-style per-librarian collection scores alongside the global
// term statistics, and a TopR = R query contacts only the R librarians
// most likely to hold answers (Federation.SelectLibrarians previews the
// choice). Selection composes with everything else — CV eligibility, CI
// candidate expansion, partial results, admission and the result cache —
// and Trace.LibrariansSelected records what it did.
package teraphim

import (
	"net"

	"teraphim/internal/core"
	"teraphim/internal/eval"
	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// Core document and retrieval types.
type (
	// Document is a stored document: title plus text.
	Document = store.Document
	// Librarian manages one subcollection: index, store, query service.
	Librarian = librarian.Librarian
	// LibrarianServer runs a librarian behind a network listener.
	LibrarianServer = librarian.Server
	// BuildOptions configures BuildLibrarianWith.
	BuildOptions = librarian.BuildOptions
	// ReceptionistConfig configures ConnectPool.
	ReceptionistConfig = core.Config
	// CacheConfig enables and sizes the receptionist result cache
	// (ReceptionistConfig.Cache): repeated queries are answered from memory
	// with zero librarian round trips, invalidated by setup changes and
	// Pool.InvalidateCache.
	CacheConfig = core.CacheConfig
	// CacheStats snapshots the result cache's hit/miss/eviction counters.
	CacheStats = core.CacheStats
	// AdmissionConfig bounds concurrent query evaluation
	// (ReceptionistConfig.Admission); excess load sheds with ErrOverloaded.
	AdmissionConfig = core.AdmissionConfig
	// Federation is the shared, immutable-after-setup state of a
	// distributed collection: global numbering, merged vocabulary,
	// decompression models and the CI central index.
	Federation = core.Federation
	// Pool is the receptionist: it brokers queries (Query, QueryContext,
	// Boolean) over bounded per-librarian connections, runs the setup
	// exchanges that build its Federation, and is safe for concurrent use
	// by any number of clients.
	Pool = core.Pool
	// Mode selects a distributed methodology (CN, CV, CI or MS).
	Mode = core.Mode
	// Options tunes one query evaluation.
	Options = core.Options
	// Result is a completed query with its merged answers and trace.
	Result = core.Result
	// Answer is one returned document.
	Answer = core.Answer
	// Trace records the protocol exchange behind one query.
	Trace = core.Trace
	// GroupedIndex is the CI methodology's space-reduced central index.
	GroupedIndex = core.GroupedIndex
	// MonoServer is the monolithic (MS) baseline.
	MonoServer = core.MonoServer
	// Engine is a one-collection search handle: an index and the analyser
	// its text was indexed with, each method (Rank, ScoreDocs, Boolean) one
	// call into the kernel. Librarian.Engine and MonoServer.Engine build one
	// on demand; nothing in the system holds one.
	Engine = search.Engine
	// SearchResult is one (document, score) pair from an Engine.
	SearchResult = search.Result
	// Analyzer is the document/query analysis pipeline.
	Analyzer = textproc.Analyzer
	// AnalyzerOption configures NewAnalyzer.
	AnalyzerOption = textproc.Option
	// Dialer connects a receptionist to named librarians.
	Dialer = simnet.Dialer
	// ChaosDialer wraps a Dialer with per-endpoint fault and latency
	// injection (kill, revive, delay) for replica-failure drills; see
	// NewChaosDialer.
	ChaosDialer = simnet.Chaos
	// TCPDialer maps librarian names to host:port addresses.
	TCPDialer = simnet.TCPDialer
	// InProcessDialer serves librarians over in-process (optionally
	// delay-shaped) links.
	InProcessDialer = librarian.InProcessDialer
	// LinkConfig shapes an in-process link's latency and bandwidth.
	LinkConfig = simnet.LinkConfig
	// Corpus is a generated synthetic test collection.
	Corpus = trecsynth.Corpus
	// CorpusConfig controls synthetic corpus generation.
	CorpusConfig = trecsynth.Config
	// Qrels holds relevance judgements for effectiveness evaluation.
	Qrels = eval.Qrels
)

// Distributed methodologies.
const (
	ModeMS = core.ModeMS
	ModeCN = core.ModeCN
	ModeCV = core.ModeCV
	ModeCI = core.ModeCI
)

// MergeStrategy selects how CN rankings are collated (see Options.Merge).
type MergeStrategy = core.MergeStrategy

// CN merge strategies.
const (
	MergeFaceValue  = core.MergeFaceValue
	MergeRoundRobin = core.MergeRoundRobin
	MergeNormalized = core.MergeNormalized
)

// ErrOverloaded is returned by the query path when admission control sheds
// a request (in-flight limit reached, queue full or deadline unmeetable).
// Test with errors.Is; a shed query consumed no librarian resources.
var ErrOverloaded = core.ErrOverloaded

// ErrUnknownMergeStrategy is returned by the query path when Options.Merge
// names no defined strategy. Test with errors.Is.
var ErrUnknownMergeStrategy = core.ErrUnknownMergeStrategy

// ErrSelectionNeedsVocabulary is returned by a TopR query (or
// SelectLibrarians) before SetupVocabulary has run. Test with errors.Is.
var ErrSelectionNeedsVocabulary = core.ErrSelectionNeedsVocabulary

// Observability types.
type (
	// MetricsRegistry collects metric instruments and renders them in
	// Prometheus text format. One registry may be shared by pools and
	// librarians; ReceptionistConfig.Metrics installs it on a pool, and
	// Librarian.Instrument on a librarian.
	MetricsRegistry = obs.Registry
	// MetricsServer is a running /metrics + pprof HTTP endpoint.
	MetricsServer = obs.Server
	// PoolMetrics is the observability surface of one Pool.
	PoolMetrics = core.Metrics
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics serves the registries' instruments at /metrics on addr (in
// registration order), with net/http/pprof mounted under /debug/pprof/.
// Close the returned server to stop.
func ServeMetrics(addr string, regs ...*MetricsRegistry) (*MetricsServer, error) {
	return obs.ListenAndServe(addr, regs...)
}

// NewAnalyzer returns the standard analysis pipeline (lowercase
// tokenisation, English stopwords, Porter stemming); options disable
// stages.
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer { return textproc.NewAnalyzer(opts...) }

// WithoutStopwords disables stopword removal.
func WithoutStopwords() AnalyzerOption { return textproc.WithoutStopwords() }

// WithoutStemming disables the Porter stemmer.
func WithoutStemming() AnalyzerOption { return textproc.WithoutStemming() }

// WithStopwords installs a custom stopword list.
func WithStopwords(words []string) AnalyzerOption { return textproc.WithStopwords(words) }

// BuildLibrarian indexes and compresses docs into a librarian named name,
// using the standard analyzer. docs also train the librarian's text model,
// which is kept for good — everything ingested later is compressed under it
// — so pass a representative sample.
func BuildLibrarian(name string, docs []Document) (*Librarian, error) {
	return librarian.Build(name, docs, librarian.BuildOptions{})
}

// BuildLibrarianWith is BuildLibrarian with explicit options.
func BuildLibrarianWith(name string, docs []Document, opts BuildOptions) (*Librarian, error) {
	return librarian.Build(name, docs, opts)
}

// Streaming ingestion: a Librarian grows its collection while serving,
// LSM-style — documents stream through Ingest onto a bounded queue,
// a background builder seals them into immutable segments, and a size-tiered
// policy merges segments behind the scenes. Queries always see one
// consistent snapshot; every publication bumps the epoch and fires OnUpdate
// (wire it to Pool.InvalidateCache). This is the per-subcollection update
// story that §4 of the paper counts among distribution's management
// benefits, taken from rebuild-and-swap to incremental.
type (
	// IngestConfig tunes a librarian's ingest pipeline: queue depth and
	// the size-tiered merge policy. Install with
	// Librarian.ConfigureIngest before the first Ingest.
	IngestConfig = librarian.IngestConfig
	// SegmentStats is a point-in-time snapshot of a librarian's segments
	// and ingest pipeline counters.
	SegmentStats = librarian.SegmentStats
	// SegmentInfo describes one live segment of a librarian.
	SegmentInfo = librarian.SegmentInfo
)

// ErrIngestQueueFull is returned by Librarian.Ingest when the bounded ingest
// queue stays full until the call's context expires — the backpressure
// signal that documents arrive faster than the background builder retires
// them. Test with errors.Is.
var ErrIngestQueueFull = librarian.ErrIngestQueueFull

// ErrLibrarianClosed is returned by ingest operations on a Librarian after
// Close. Test with errors.Is.
var ErrLibrarianClosed = librarian.ErrLibrarianClosed

// ServeLibrarian serves lib's collection on ln until Close.
func ServeLibrarian(lib *Librarian, ln net.Listener) *LibrarianServer {
	return librarian.Serve(lib, ln)
}

// SaveCollection persists a librarian's collection to a directory.
func SaveCollection(dir string, lib *Librarian, stopwords, stemming bool) error {
	return librarian.Save(dir, lib, librarian.SaveOptions{Stopwords: stopwords, Stemming: stemming})
}

// LoadCollection reopens a collection saved with SaveCollection.
func LoadCollection(dir string) (*Librarian, error) { return librarian.Load(dir) }

// NewInProcessDialer wires librarians to a receptionist through in-process
// links with the given shaping (zero LinkConfig means no delay).
func NewInProcessDialer(libs []*Librarian, cfg LinkConfig) *InProcessDialer {
	return librarian.NewInProcessDialer(libs, cfg)
}

// NewChaosDialer wraps inner with per-endpoint fault and latency injection:
// Kill(endpoint) makes one replica refuse dials and severs its live
// connections, Revive restores it, SetDelay shapes it slow. It is how the
// chaos tests (and the README's kill-a-replica demo) break individual
// replicas deterministically without a real network.
func NewChaosDialer(inner Dialer) *ChaosDialer { return simnet.NewChaos(inner) }

// ConnectPool dials the named librarians (order fixes global document
// numbering), performs the initial Hello exchange and returns the
// receptionist: run the Setup* exchanges once, then serve any number of
// concurrent clients through Pool.Query.
func ConnectPool(dialer Dialer, names []string, cfg ReceptionistConfig) (*Pool, error) {
	return core.NewPool(dialer, names, cfg)
}

// BuildGroupedIndex builds the CI methodology's central grouped index from
// the analysed term lists of every document in global order.
func BuildGroupedIndex(docTerms [][]string, groupSize int, analyzer *Analyzer) (*GroupedIndex, error) {
	return core.BuildGrouped(docTerms, groupSize, analyzer)
}

// NewMonoServer serves an engine's index, queried with its analyser (and an
// optional store and key table), as the MS baseline.
func NewMonoServer(engine *Engine, docs *DocumentStore, keys []string) (*MonoServer, error) {
	return core.NewMonoServer(engine, docs, keys)
}

// DocumentStore is a compressed document archive.
type DocumentStore = store.Store

// BuildStore compresses documents into a DocumentStore.
func BuildStore(docs []Document) (*DocumentStore, error) { return store.Build(docs) }

// GenerateCorpus builds the synthetic TREC-like corpus used by the paper's
// experiments.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) { return trecsynth.Generate(cfg) }

// DefaultCorpusConfig returns the standard experiment corpus configuration.
func DefaultCorpusConfig() CorpusConfig { return trecsynth.DefaultConfig() }

// SkewedCorpusConfig returns a corpus configuration of numSubs small,
// topically focused subcollections of docsPerSub documents each — the
// many-subcollections regime where top-R collection selection
// (Options.TopR) pays off.
func SkewedCorpusConfig(numSubs, docsPerSub int) CorpusConfig {
	return trecsynth.SkewedConfig(numSubs, docsPerSub)
}
