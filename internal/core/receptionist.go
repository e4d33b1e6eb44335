package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"teraphim/internal/obs"
	"teraphim/internal/search"
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
	// Zero (the default) sends every query in its own frame. A query that
	// finds batch-mates waits at most one window, so set this well below
	// Timeout.
	BatchWindow time.Duration
}

// DefaultKPrime is the paper's default k' for the CI methodology.
const DefaultKPrime = 100

// Config configures a Pool.
type Config struct {
	// Analyzer must match the librarians' analysis pipeline. Nil selects
	// the standard pipeline.
	Analyzer *textproc.Analyzer
	// MaxConnsPerLibrarian bounds how many connections the pool keeps open
	// to each librarian endpoint, and therefore how many exchanges can run
	// against it concurrently: eight per connection. Zero selects
	// DefaultMaxConnsPerLibrarian.
	MaxConnsPerLibrarian int
	// Metrics is the registry the pool registers its instruments on, letting
	// several pools (or a pool plus a librarian) share one /metrics page.
	// Nil gives the pool a private registry: metrics are always collected,
	// and Pool.Metrics reads them.
	Metrics *obs.Registry
	// SlowQueryThreshold enables the slow-query log: a completed (or failed)
	// query slower than this emits one key=value line with the per-stage
	// breakdown to standard error. Zero disables the log.
	SlowQueryThreshold time.Duration
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
	// after them, the pre-replication behaviour. The replica sets are fixed
	// for the pool's life.
	Replicas map[string][]string
	// TwoRoundFetch runs the paper's protocol: every rank request asks for
	// every nominated score back (ScoreDocs.K = 0) and no documents
	// (FetchTop = 0), so a Fetch query fetches its text in a second round.
	// False (the default) lets rank replies carry only each librarian's best
	// results and their documents, so a Fetch query is one exchange.
	TwoRoundFetch bool
}

// ErrInvalidK is returned by the query path for a k outside [1, 2³²−1]: k
// travels as a uint32 in every rank request, so a larger value would wrap on
// the wire. Test with errors.Is.
var ErrInvalidK = errors.New("core: k out of range")

// ErrUnsupportedMode is returned for a mode the entry point does not serve: a
// Pool serves CN, CV and CI, a MonoServer only MS. Test with errors.Is.
var ErrUnsupportedMode = errors.New("core: unsupported mode")

// plan is one query's Options after resolve: validated, defaulted and
// clamped. Its cacheKey holds everything that fixes the answer (query text
// left empty — the pool fills in the normalised text), so equivalent option
// spellings evaluate and cache identically; the rest is how to get there.
type plan struct {
	cacheKey
	policy     callPolicy
	compressed bool
}

// resolve is the one reader of Options. It rejects a k the wire cannot carry,
// a mode this entry point does not serve (fed is nil for MonoServer, which
// serves only MS), an undefined merge strategy and an undefined evaluator —
// each before any librarian sees a frame — and defaults or clamps the rest.
// Merge and Evaluator fail in every mode, including those that ignore them:
// an out-of-range value is a caller bug worth surfacing, not a knob that
// happens not to matter today.
func resolve(fed *Federation, mode Mode, k int, opts Options) (plan, error) {
	if k <= 0 || uint64(k) > math.MaxUint32 {
		return plan{}, fmt.Errorf("%w: %d", ErrInvalidK, k)
	}
	served := mode == ModeMS
	if fed != nil {
		served = mode == ModeCN || mode == ModeCV || mode == ModeCI
	}
	if !served {
		return plan{}, fmt.Errorf("%w: %v", ErrUnsupportedMode, mode)
	}
	switch opts.Merge {
	case 0, MergeFaceValue, MergeRoundRobin, MergeNormalized:
	default:
		return plan{}, fmt.Errorf("%w: %v", ErrUnknownMergeStrategy, opts.Merge)
	}
	if !opts.Evaluator.Valid() {
		return plan{}, fmt.Errorf("%w: %d", search.ErrUnknownEvaluator, uint8(opts.Evaluator))
	}
	p := plan{
		cacheKey: cacheKey{mode: mode, k: k, merge: MergeFaceValue, fetch: opts.Fetch, eval: opts.Evaluator},
		// Negative counts and durations are treated like zero. A negative
		// timeout would otherwise set a conn deadline in the past and fail
		// every exchange instantly — counted as librarian failures when the
		// librarians were never even asked.
		policy: callPolicy{
			timeout:       max(opts.Timeout, 0),
			retries:       max(opts.Retries, 0),
			backoff:       max(opts.Backoff, 0),
			allowPartial:  opts.AllowPartial || opts.MinLibrarians > 0,
			minLibrarians: opts.MinLibrarians,
			batchWindow:   max(opts.BatchWindow, 0),
		},
		compressed: opts.CompressedTransfer,
	}
	// CV and CI scores are already globally comparable, so only CN honours
	// Merge; zero selects the paper's face-value merge.
	if mode == ModeCN && opts.Merge != 0 {
		p.merge = opts.Merge
	}
	if mode == ModeCI {
		p.kPrime = opts.KPrime
		if p.kPrime <= 0 {
			p.kPrime = DefaultKPrime
		}
	}
	// A hedge quantile outside (0,1) is meaningless: treat it as off.
	if opts.HedgeAfter > 0 && opts.HedgeAfter < 1 {
		p.policy.hedge = opts.HedgeAfter
	}
	// Non-positive TopR is full fan-out (the paper's behaviour); larger than
	// the fleet clamps to it, so R=64 on four librarians behaves, and caches,
	// exactly like R=4. R equal to the fleet keeps the selection path live
	// rather than short-circuiting to full fan-out — that is what makes the
	// R=all golden comparison exercise the real code.
	if fed != nil && opts.TopR > 0 {
		p.topR = min(opts.TopR, len(fed.libs))
	}
	return p, nil
}
