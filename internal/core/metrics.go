package core

import (
	"fmt"
	"time"

	"teraphim/internal/obs"
	"teraphim/internal/search"
)

// modeInstruments is one methodology's counter set. Every series exists from
// pool construction, so /metrics shows zeroed families before traffic and
// the query path never registers (registration locks; recording does not).
type modeInstruments struct {
	queries  *obs.Counter
	errors   *obs.Counter
	retries  *obs.Counter
	failures *obs.Counter
	degraded *obs.Counter
	duration *obs.Histogram
}

// Metrics is the observability surface of one Pool and the queries served
// over it. All instruments aggregate the same quantities the per-query
// Trace already records — the paper's CPU/disk/communication cost terms —
// into fleet-wide counters a scrape can watch. Recording is lock-free
// atomics; nothing here allocates after construction.
type Metrics struct {
	byMode map[Mode]*modeInstruments

	stageAnalyze *obs.Histogram
	stageShip    *obs.Histogram
	stageWait    *obs.Histogram
	stageMerge   *obs.Histogram

	acquireWait   *obs.Histogram
	connsInUse    *obs.Gauge
	connsIdle     *obs.Gauge
	dirtyDiscards *obs.Counter

	// Wire families: actual frames and bytes on the network, as opposed to
	// the per-query Trace view — batching makes one frame answer several
	// queries, so wireRoundTrips falls below Trace round-trip counts.
	wireRoundTrips *obs.Counter
	wireBytesIn    *obs.Counter
	wireBytesOut   *obs.Counter

	// Result-cache families: hits answered with zero librarian round trips,
	// misses that fell through to the full pipeline, LRU evictions, and
	// epoch invalidations (setup re-runs, librarian collection swaps).
	cacheHits          *obs.Counter
	cacheMisses        *obs.Counter
	cacheEvictions     *obs.Counter
	cacheInvalidations *obs.Counter
	cacheEntries       *obs.Gauge
	cacheBytes         *obs.Gauge

	// Admission-control families: queries shed with ErrOverloaded, current
	// in-flight and queued query counts, and the queue wait of admitted
	// queries.
	admissionShed       *obs.Counter
	admissionInFlight   *obs.Gauge
	admissionQueueDepth *obs.Gauge
	admissionWait       *obs.Histogram

	// Collection-selection families: queries that went through the top-R
	// ranker, and candidate librarians it ranked out of the fan-out.
	selectionQueries *obs.Counter
	selectionSkipped *obs.Counter

	// Replica-routing families: hedged exchanges launched and won, and the
	// router's passive-health transitions (ejections on consecutive
	// failures, readmissions on successful probes).
	hedgeLaunched       *obs.Counter
	hedgeWon            *obs.Counter
	replicaEjections    *obs.Counter
	replicaReadmissions *obs.Counter

	// central accounts the receptionist-side index work (CI group ranking).
	central *search.Metrics
}

// newMetrics registers the pool's instrument families on reg.
func newMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{byMode: make(map[Mode]*modeInstruments, 3)}
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		labels := fmt.Sprintf("mode=%q", mode.String())
		m.byMode[mode] = &modeInstruments{
			queries: reg.Counter("teraphim_queries_total",
				"Completed ranked queries by methodology.", labels),
			errors: reg.Counter("teraphim_query_errors_total",
				"Ranked queries that returned an error.", labels),
			retries: reg.Counter("teraphim_query_retry_attempts_total",
				"Librarian exchanges beyond each librarian's first attempt (Trace.RetryAttempts).", labels),
			failures: reg.Counter("teraphim_query_librarian_failures_total",
				"Librarians that exhausted every attempt of an exchange (Trace.Failures).", labels),
			degraded: reg.Counter("teraphim_queries_degraded_total",
				"Queries answered from a surviving subset of librarians.", labels),
			duration: reg.Histogram("teraphim_query_seconds",
				"End-to-end query latency by methodology.", labels, nil),
		}
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("teraphim_query_stage_seconds",
			"Per-stage query latency: analyze (central weighting/group ranking), ship (request write), wait (librarian evaluation + reply read), merge (central collation).",
			fmt.Sprintf("stage=%q", name), nil)
	}
	m.stageAnalyze = stage("analyze")
	m.stageShip = stage("ship")
	m.stageWait = stage("wait")
	m.stageMerge = stage("merge")

	m.acquireWait = reg.Histogram("teraphim_pool_acquire_wait_seconds",
		"Time a query spent blocked waiting for a per-librarian connection slot.", "", nil)
	m.connsInUse = reg.Gauge("teraphim_pool_conns_in_use",
		"Connections currently leased to in-flight exchanges.", "")
	m.connsIdle = reg.Gauge("teraphim_pool_conns_idle",
		"Connections parked on the idle lists, ready for reuse.", "")
	m.dirtyDiscards = reg.Counter("teraphim_pool_dirty_discards_total",
		"Connections discarded because their stream was interrupted mid-message.", "")

	m.wireRoundTrips = reg.Counter("teraphim_wire_round_trips_total",
		"Request/reply frame pairs actually exchanged on the wire (batched queries share one).", "")
	m.wireBytesIn = reg.Counter("teraphim_wire_bytes_in_total",
		"Reply bytes read off the wire, framing included.", "")
	m.wireBytesOut = reg.Counter("teraphim_wire_bytes_out_total",
		"Request bytes written to the wire, framing included.", "")

	m.cacheHits = reg.Counter("teraphim_cache_hits_total",
		"Queries answered from the result cache with zero librarian round trips.", "")
	m.cacheMisses = reg.Counter("teraphim_cache_misses_total",
		"Cacheable queries that fell through to the full pipeline.", "")
	m.cacheEvictions = reg.Counter("teraphim_cache_evictions_total",
		"Cached results removed individually: LRU/byte-bound evictions plus stale entries dropped lazily on lookup.", "")
	m.cacheInvalidations = reg.Counter("teraphim_cache_invalidations_total",
		"Invalidation events (one per InvalidateCache call, regardless of how many entries it dooms).", "")
	m.cacheEntries = reg.Gauge("teraphim_cache_entries",
		"Results currently held by the cache.", "")
	m.cacheBytes = reg.Gauge("teraphim_cache_bytes",
		"Approximate resident size of the cached results.", "")

	m.admissionShed = reg.Counter("teraphim_admission_shed_total",
		"Queries shed with ErrOverloaded: in-flight limit reached and the queue was full, timed out, or the deadline could not be met.", "")
	m.admissionInFlight = reg.Gauge("teraphim_admission_in_flight",
		"Queries currently admitted and evaluating.", "")
	m.admissionQueueDepth = reg.Gauge("teraphim_admission_queue_depth",
		"Queries waiting for an in-flight slot.", "")
	m.admissionWait = reg.Histogram("teraphim_admission_wait_seconds",
		"Queue wait of queries that were eventually admitted.", "", nil)

	m.selectionQueries = reg.Counter("teraphim_selection_queries_total",
		"Queries whose fan-out was narrowed by top-R collection selection.", "")
	m.selectionSkipped = reg.Counter("teraphim_selection_librarians_skipped_total",
		"Candidate librarians not contacted because selection ranked them outside the top R.", "")

	m.hedgeLaunched = reg.Counter("teraphim_hedge_launched_total",
		"Hedged exchanges launched: the primary outlived its latency-quantile budget and a second replica was raced (only hedges that got a free connection slot count).", "")
	m.hedgeWon = reg.Counter("teraphim_hedge_won_total",
		"Hedged exchanges whose reply arrived first and was used.", "")
	m.replicaEjections = reg.Counter("teraphim_replica_ejections_total",
		"Replicas ejected from routing after consecutive exchange failures (including failed readmission probes).", "")
	m.replicaReadmissions = reg.Counter("teraphim_replica_readmissions_total",
		"Ejected replicas readmitted after a successful exchange.", "")

	m.central = search.NewMetrics(reg, `component="central"`)
	return m
}

// HedgesLaunched returns the cumulative count of hedged exchanges launched
// (teraphim_hedge_launched_total), for programmatic inspection alongside the
// per-query Trace.Hedges.
func (m *Metrics) HedgesLaunched() uint64 { return m.hedgeLaunched.Value() }

// HedgesWon returns the cumulative count of hedged exchanges whose reply
// arrived first and was used (teraphim_hedge_won_total).
func (m *Metrics) HedgesWon() uint64 { return m.hedgeWon.Value() }

// WireRoundTrips returns the cumulative count of request/reply frame pairs
// actually exchanged on the wire (teraphim_wire_round_trips_total). Batching
// answers several queries per pair, so this divided by queries served is the
// round-trips-per-query figure the paper's cost model charges for.
func (m *Metrics) WireRoundTrips() uint64 { return m.wireRoundTrips.Value() }

// WireBytesIn returns cumulative reply bytes read off the wire, framing
// included (teraphim_wire_bytes_in_total).
func (m *Metrics) WireBytesIn() uint64 { return m.wireBytesIn.Value() }

// WireBytesOut returns cumulative request bytes written to the wire, framing
// included (teraphim_wire_bytes_out_total).
func (m *Metrics) WireBytesOut() uint64 { return m.wireBytesOut.Value() }

// observeQuery folds one completed (or failed) query into the counters and
// stage histograms, and emits the slow-query line when the pool is
// configured for one.
func (p *Pool) observeQuery(mode Mode, query string, dur time.Duration, res *Result, err error) {
	m := p.metrics
	mi := m.byMode[mode]
	if mi == nil {
		return
	}
	t := &res.Trace
	if err != nil {
		mi.errors.Inc()
	} else {
		mi.queries.Inc()
		mi.duration.ObserveDuration(dur)
	}
	if t.CacheHit {
		// A hit did no analyze/ship/wait/merge work; folding its zeros into
		// the stage histograms would fake a faster pipeline.
		return
	}
	mi.retries.Add(uint64(t.RetryAttempts()))
	mi.failures.Add(uint64(len(t.Failures)))
	if t.Degraded {
		mi.degraded.Inc()
	}
	m.stageAnalyze.ObserveDuration(t.Stages.Analyze)
	m.stageShip.ObserveDuration(t.Stages.Ship)
	m.stageWait.ObserveDuration(t.Stages.Wait)
	m.stageMerge.ObserveDuration(t.Stages.Merge)
	m.central.Observe(t.CentralStats)

	if p.slowThreshold > 0 && dur >= p.slowThreshold {
		p.logSlowQuery(mode, query, dur, res, err)
	}
}

// logSlowQuery emits one structured line with the per-stage breakdown. The
// format is key=value so log pipelines can parse it without a schema.
func (p *Pool) logSlowQuery(mode Mode, query string, dur time.Duration, res *Result, err error) {
	t := &res.Trace
	w := p.slowLog
	fmt.Fprintf(w,
		"teraphim slow-query mode=%s dur=%s analyze=%s ship=%s wait=%s merge=%s libs=%d retries=%d failures=%d degraded=%t err=%v query=%q\n",
		mode, dur, t.Stages.Analyze, t.Stages.Ship, t.Stages.Wait, t.Stages.Merge,
		t.LibrariansAsked, t.RetryAttempts(), len(t.Failures), t.Degraded, err, query)
}
