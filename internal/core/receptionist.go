package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"teraphim/internal/obs"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/textproc"
)

// Answer is one document returned to the user: the owning librarian, its
// local and global ids, the merged similarity score, and (when the fetch
// phase runs) the document itself.
type Answer struct {
	Librarian string
	LocalDoc  uint32
	GlobalDoc uint32
	Score     float64
	Title     string
	Text      string
}

// Key returns the global document identity "librarian:localid" used in
// qrels and run files.
func (a Answer) Key() string { return fmt.Sprintf("%s:%d", a.Librarian, a.LocalDoc) }

// Result is a completed query: the merged ranking plus its trace.
type Result struct {
	Answers []Answer
	Trace   Trace
}

// Options tunes one query evaluation.
type Options struct {
	// KPrime is the number of groups the CI methodology expands (the
	// paper's k'). Zero selects DefaultKPrime.
	KPrime int
	// Fetch runs step 4, retrieving document text for the top k.
	Fetch bool
	// CompressedTransfer ships documents in compressed form; requires
	// SetupModels to have run so the receptionist can decompress.
	CompressedTransfer bool
	// Merge selects the CN collation strategy (zero = MergeFaceValue, the
	// paper's behaviour). Ignored by CV and CI, whose scores are already
	// globally comparable. A value naming no defined strategy fails the
	// query with ErrUnknownMergeStrategy in every mode.
	Merge MergeStrategy
	// TopR narrows the rank-phase fan-out to the R librarians most likely
	// to hold answers, ranked by CORI collection-selection score over the
	// merged vocabulary's per-librarian statistics. Zero or negative
	// disables selection (full fan-out, the paper's behaviour); values
	// above the fleet size clamp to it. Requires SetupVocabulary in every
	// mode, including CN. Selection composes with the other machinery: CV's
	// eligibility filter and CI's candidate expansion run first and
	// selection narrows their output; MinLibrarians/AllowPartial apply to
	// the selected set; cached entries are keyed by the resolved R.
	TopR int
	// Timeout bounds each librarian exchange within the query; zero means
	// no deadline. On the paper's WAN, where "the cost of running the WAN
	// queries varied by as much as a factor of one hundred", a deadline is
	// what keeps one stuck site from hanging the whole query.
	Timeout time.Duration
	// Retries is the number of additional attempts after a failed librarian
	// exchange. Each retry redials the librarian (a timed-out stream may be
	// desynced mid-message and is never reused) and re-sends the request.
	// Zero fails the exchange on its first error.
	Retries int
	// Backoff is the wait before the first retry, doubling on each further
	// retry and capped at 5s. Zero retries immediately.
	Backoff time.Duration
	// AllowPartial lets a query complete from the surviving librarians when
	// some exhaust every attempt: CN and CV merge the rankings that arrived,
	// CI drops candidate groups owned by dead librarians, and the failures
	// are recorded in Trace.Failures with Trace.Degraded set. When false
	// (the default) the first exhausted librarian fails the query.
	// MinLibrarians > 0 implies AllowPartial.
	AllowPartial bool
	// MinLibrarians is the minimum number of librarians that must answer
	// the rank phase for a partial result to be returned; fewer fails the
	// query. Zero means one surviving librarian suffices.
	MinLibrarians int
	// HedgeAfter races a second replica when an exchange outlives this
	// latency quantile of the librarian's recent exchanges (tracked by a
	// streaming estimator; e.g. 0.95 hedges the slowest 5%). The first
	// reply wins and the loser is cancelled. Requires ≥2 replicas for the
	// librarian and takes effect only once enough latency samples exist.
	// A hedge is not a retry (Trace.Hedges accounts it separately), never
	// blocks behind a busy replica (it takes a connection slot only if one
	// is free), and cannot change results — replicas serve identical
	// subcollections. Zero, or any value outside (0,1), disables hedging.
	HedgeAfter float64
	// Evaluator selects the librarians' rank-phase evaluation strategy:
	// EvalExact (zero, the default) is the exhaustive document-sorted
	// kernel; EvalMaxScore and EvalWAND are the rank-safe dynamic-pruning
	// evaluators, which skip postings that provably cannot reach the top k
	// while returning bit-identical rankings. The choice is threaded to
	// every librarian in all modes (MS/CN/CV/CI); an unknown value fails
	// the query with search.ErrUnknownEvaluator before any wire work.
	Evaluator search.Evaluator
	// BatchWindow lets a rank-phase request linger this long at the
	// receptionist waiting for other clients' requests to the same
	// librarian; everything that accumulates is shipped in one BatchQuery
	// frame and answered in one reply, cutting round trips per query under
	// concurrency (the paper's cost model charges per network contact).
	// Batching cannot change results — the librarian evaluates the batched
	// queries exactly as it would separately — and failure stays per-query.
	// Requires the librarian to have granted FeatureBatching; zero (the
	// default) sends every query in its own frame. A query that finds
	// batch-mates waits at most one window, so set this well below Timeout.
	BatchWindow time.Duration
}

// DefaultKPrime is the paper's default k' for the CI methodology.
const DefaultKPrime = 100

// Config configures a Receptionist (and the Pool underneath it).
type Config struct {
	// Analyzer must match the librarians' analysis pipeline. Nil selects
	// the standard pipeline.
	Analyzer *textproc.Analyzer
	// MaxConnsPerLibrarian bounds how many connections the pool keeps open
	// to each librarian endpoint, and therefore how many exchanges can run
	// against it concurrently: PipelineDepth per connection on tagged
	// frames, one per connection otherwise. Zero selects
	// DefaultMaxConnsPerLibrarian.
	MaxConnsPerLibrarian int
	// Metrics is the registry the pool registers its instruments on, letting
	// several pools (or a pool plus a librarian) share one /metrics page.
	// Nil gives the pool a private registry — metrics are always collected —
	// reachable via Pool.Metrics().Registry().
	Metrics *obs.Registry
	// SlowQueryThreshold enables the slow-query log: a completed (or failed)
	// query slower than this emits one key=value line with the per-stage
	// breakdown to SlowQueryLog. Zero disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines; nil selects os.Stderr. The
	// writer must be safe for concurrent use (os.Stderr and log writers are).
	SlowQueryLog io.Writer
	// Cache enables the receptionist result cache: repeated queries (same
	// mode, normalized text, k and merge strategy) are answered from memory
	// with zero librarian round trips. Nil disables caching. Entries are
	// invalidated automatically when setup state changes and explicitly via
	// InvalidateCache (wire it to Librarian.OnUpdate).
	Cache *CacheConfig
	// Admission bounds concurrent query evaluation: beyond MaxInFlight
	// running queries and MaxQueue waiting ones, requests shed immediately
	// with ErrOverloaded instead of queueing past their deadlines. Nil
	// disables admission control.
	Admission *AdmissionConfig
	// Replicas maps a librarian name to the endpoint names (dialer keys)
	// of the replicas serving its subcollection. Every endpoint must serve
	// the same documents as the librarian's other replicas (replicas are
	// interchangeable by contract — routing between them cannot change
	// results). Librarians absent from the map get a single endpoint named
	// after them, the pre-replication behaviour. Replica sets can be grown
	// and shrunk live via Pool.AddReplica / Pool.RemoveReplica.
	Replicas map[string][]string
	// ReplicaEjectAfter is the number of consecutive exchange failures
	// after which a replica is ejected from routing (new exchanges go to
	// its siblings). Zero selects DefaultReplicaEjectAfter.
	ReplicaEjectAfter int
	// ReplicaProbeAfter is how long an ejected replica sits out before a
	// single probe exchange is routed to it; success readmits it, failure
	// ejects it for another window. Zero selects DefaultReplicaProbeAfter.
	ReplicaProbeAfter time.Duration
	// WireFeatures is the wire-protocol feature set requested in every
	// Hello: FeaturePipelining multiplexes exchanges over tagged frames,
	// FeatureBatching enables cross-client query batching, FeatureRankFetch
	// lets rank replies carry the answers' documents. Zero requests
	// DefaultWireFeatures; FeatureNone pins the seed protocol (untagged
	// frames, one exchange per connection at a time, no negotiation bytes).
	// Each librarian grants the subset it supports, so in a mixed-version
	// fleet a connection to an old librarian carries seed frames at depth
	// one instead of failing.
	WireFeatures protocol.Features
	// PipelineDepth bounds concurrent exchanges multiplexed on one
	// tagged connection; per-replica concurrency becomes
	// MaxConnsPerLibrarian × PipelineDepth. Zero selects
	// DefaultPipelineDepth. A connection that did not negotiate pipelining
	// has depth one whatever this says.
	PipelineDepth int
}

// Receptionist brokers queries to a fixed set of librarians. It is a thin
// handle over a shared Federation (global numbering, merged vocabulary,
// models, central index) and a bounded connection Pool, and is safe for
// concurrent use: any number of goroutines may Query at once, sharing the
// setup work done once. Use Pool()/Federation() directly for finer control
// (per-client Sessions, replica membership).
type Receptionist struct {
	pool *Pool
}

// Connect dials the named librarians (in the given order — the order fixes
// global document numbering) and performs the Hello exchange. It is exactly
// NewReceptionist(NewPool(...)): the single setup path lives in NewPool,
// and Connect is the one-line convenience over it.
func Connect(dialer simnet.Dialer, names []string, cfg Config) (*Receptionist, error) {
	pool, err := NewPool(dialer, names, cfg)
	if err != nil {
		return nil, err
	}
	return NewReceptionist(pool), nil
}

// NewReceptionist wraps an already-connected pool in the Receptionist
// convenience API. Receptionists are stateless handles: any number may wrap
// the same pool, alongside direct Pool/Session use.
func NewReceptionist(pool *Pool) *Receptionist {
	return &Receptionist{pool: pool}
}

// Pool returns the connection pool serving this receptionist.
func (r *Receptionist) Pool() *Pool { return r.pool }

// Federation returns the shared federation state behind this receptionist.
func (r *Receptionist) Federation() *Federation { return r.pool.fed }

// Close closes every librarian connection, idle or in use. Queries in
// flight fail with transport errors (or complete their current exchange);
// new queries fail with ErrPoolClosed. Close is idempotent.
func (r *Receptionist) Close() error { return r.pool.Close() }

// Librarians returns the librarian names in global-numbering order.
func (r *Receptionist) Librarians() []string { return r.pool.fed.Librarians() }

// TotalDocs returns the number of documents across all librarians.
func (r *Receptionist) TotalDocs() uint32 { return r.pool.fed.TotalDocs() }

// GlobalDoc converts (librarian, local id) to the global document number.
func (r *Receptionist) GlobalDoc(name string, local uint32) (uint32, error) {
	return r.pool.fed.GlobalDoc(name, local)
}

// ResolveGlobal converts a global document number to (librarian, local id).
func (r *Receptionist) ResolveGlobal(global uint32) (string, uint32, error) {
	return r.pool.fed.ResolveGlobal(global)
}

// SetupVocabulary performs the CV preprocessing step: fetch each librarian's
// vocabulary and merge into the global term statistics. The returned trace
// records the transfer cost. Required before CV or CI queries.
func (r *Receptionist) SetupVocabulary() (Trace, error) { return r.pool.SetupVocabulary() }

// VocabularySize returns the number of distinct terms in the merged
// vocabulary and its approximate storage cost in bytes.
func (r *Receptionist) VocabularySize() (terms int, bytes uint64) {
	return r.pool.fed.VocabularySize()
}

// SetupModels fetches each librarian's document-compression model, enabling
// compressed document transfer.
func (r *Receptionist) SetupModels() (Trace, error) { return r.pool.SetupModels() }

// SetupCentralIndexRemote performs the CI preprocessing entirely over the
// wire: fetch every librarian's inverted index, merge them into a grouped
// central index with groups of groupSize adjacent documents, and install
// it. The returned trace records the (large) one-time transfer cost the
// paper's §4 discusses for the CI receptionist.
func (r *Receptionist) SetupCentralIndexRemote(groupSize int) (Trace, error) {
	return r.pool.SetupCentralIndexRemote(groupSize)
}

// SetupCentralIndex installs the grouped central index for CI queries. The
// grouped index must have been built over the same documents in the same
// global order (see BuildGrouped); this is the offline "merge the
// subcollection indexes" preprocessing the paper describes.
func (r *Receptionist) SetupCentralIndex(g *GroupedIndex) error {
	return r.pool.fed.SetupCentralIndex(g)
}

// GlobalWeights computes the merged-vocabulary query weights
// w_{q,t} = log(f_{q,t}+1)·log(N/f_t+1) with N and f_t global. Requires
// SetupVocabulary.
func (r *Receptionist) GlobalWeights(query string) (map[string]float64, error) {
	return r.pool.fed.GlobalWeights(query)
}

// SelectLibrarians returns the names of the r librarians a TopR=r query for
// query would fan out to, in global-numbering order; see
// Federation.SelectLibrarians. Requires SetupVocabulary.
func (r *Receptionist) SelectLibrarians(query string, topR int) ([]string, error) {
	return r.pool.fed.SelectLibrarians(query, topR)
}

// Query evaluates a ranked query under the given methodology, returning the
// top k answers merged across librarians. Safe for concurrent use.
func (r *Receptionist) Query(mode Mode, query string, k int, opts Options) (*Result, error) {
	return r.pool.Query(mode, query, k, opts)
}

// QueryContext is Query under a context; see Session.QueryContext.
func (r *Receptionist) QueryContext(ctx context.Context, mode Mode, query string, k int, opts Options) (*Result, error) {
	return r.pool.QueryContext(ctx, mode, query, k, opts)
}

// Metrics returns the observability surface of the underlying pool.
func (r *Receptionist) Metrics() *Metrics { return r.pool.Metrics() }

// InvalidateCache drops every cached result; see Pool.InvalidateCache.
func (r *Receptionist) InvalidateCache() { r.pool.InvalidateCache() }

// CacheStats snapshots the result cache's counters; ok is false when no
// cache is configured.
func (r *Receptionist) CacheStats() (stats CacheStats, ok bool) { return r.pool.CacheStats() }

// Boolean evaluates expr at every librarian and unions the result sets.
func (r *Receptionist) Boolean(expr string) (*BooleanResult, error) {
	return r.pool.Boolean(expr)
}

// AddReplica registers a new endpoint serving the named librarian's
// subcollection; see Pool.AddReplica.
func (r *Receptionist) AddReplica(lib, endpoint string) error {
	return r.pool.AddReplica(lib, endpoint)
}

// RemoveReplica takes an endpoint out of the named librarian's replica set;
// see Pool.RemoveReplica.
func (r *Receptionist) RemoveReplica(lib, endpoint string) error {
	return r.pool.RemoveReplica(lib, endpoint)
}

// Replicas reports the current replica set of the named librarian.
func (r *Receptionist) Replicas(lib string) ([]ReplicaStatus, error) {
	return r.pool.Replicas(lib)
}
