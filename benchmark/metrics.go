package main

// A metricSpec names one reported number. The tables below are the
// benchmark's contract with later changes; BENCHMARK.json repeats name,
// unit, direction and bound, and a test holds the two together.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a user of the system sees. Every workload reports
// every one of them from the untraced run.
var endToEnd = []metricSpec{
	{name: "query_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "query_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "queries_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_heap_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "ingest_docs_per_s", unit: "1/s", better: "higher", bound: 0.25},
}

// perLayer are the numbers of single layers (layer = package), from the
// traced run. A metric whose layer the workload does not exercise is 0
// there. README.md says which end-to-end metric, on which workload, each
// should move.
var perLayer = []metricSpec{
	{name: "textproc.analyze_us", unit: "us", better: "lower"},
	{name: "core.weights_us", unit: "us", better: "lower"},
	{name: "selection.select_us", unit: "us", better: "lower"},
	{name: "core.query_span_us", unit: "us", better: "lower"},
	{name: "core.stage_analyze_us", unit: "us", better: "lower"},
	{name: "core.stage_ship_us", unit: "us", better: "lower"},
	{name: "core.stage_wait_us", unit: "us", better: "lower"},
	{name: "core.stage_merge_us", unit: "us", better: "lower"},
	{name: "core.unaccounted_us", unit: "us", better: "lower"},
	{name: "core.allocs_per_query", unit: "count", better: "lower"},
	{name: "core.alloc_bytes_per_query", unit: "B", better: "lower"},
	{name: "core.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "core.cache_invalidations", unit: "count", better: "lower"},
	{name: "protocol.round_trips_per_query", unit: "count", better: "lower"},
	{name: "protocol.wire_bytes_per_query", unit: "B", better: "lower"},
	{name: "protocol.frame_encode_ns", unit: "ns", better: "lower"},
	{name: "protocol.frame_decode_ns", unit: "ns", better: "lower"},
	{name: "librarian.exchange_us", unit: "us", better: "lower"},
	{name: "librarian.build_s", unit: "s", better: "lower"},
	{name: "librarian.segments", unit: "count", better: "lower"},
	{name: "librarian.merges", unit: "count", better: "lower"},
	{name: "librarian.ingest_lag_ms", unit: "ms", better: "lower"},
	{name: "librarian.ingest_flush_p50_ms", unit: "ms", better: "lower"},
	{name: "search.rank_us_exact", unit: "us", better: "lower"},
	{name: "search.rank_us_maxscore", unit: "us", better: "lower"},
	{name: "search.rank_us_wand", unit: "us", better: "lower"},
	{name: "search.scoredocs_us", unit: "us", better: "lower"},
	{name: "search.postings_decoded_per_query", unit: "count", better: "lower"},
	{name: "search.candidate_docs_per_query", unit: "count", better: "lower"},
	{name: "index.scan_ns_per_posting", unit: "ns", better: "lower"},
	{name: "index.bytes_read_per_query", unit: "B", better: "lower"},
	{name: "store.fetch_us_per_doc", unit: "us", better: "lower"},
	{name: "store.doc_bytes_per_query", unit: "B", better: "lower"},
	{name: "costmodel.predicted_over_measured", unit: "ratio", better: "higher"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
}

// exactCounts are per-layer metrics computed from counters over a fixed set
// of queries with one client: on a static workload they must repeat exactly
// from run to run of one seed, and -selfcheck fails if they do not.
// protocol.wire_bytes_per_query should be among them and is not: on a
// zero-latency pipelined link Call.ReqBytes now and then reads 0 (README,
// first findings), so the sum wanders by a fraction of a percent.
var exactCounts = []string{
	"protocol.round_trips_per_query",
	"search.postings_decoded_per_query",
	"search.candidate_docs_per_query",
	"index.bytes_read_per_query",
	"store.doc_bytes_per_query",
}
