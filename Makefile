# Development targets. `make verify` is the pre-merge wall: static checks,
# the internal/core line ceiling, the full test suite under the race
# detector, and short fuzz smokes of the wire protocol and postings codec.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet loc fuzz-smoke benchmark-smoke bench bench-smoke bench-cache bench-cache-smoke bench-select bench-select-smoke bench-replica bench-replica-smoke bench-wire bench-wire-smoke bench-ingest bench-ingest-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# ROADMAP aim 2 in one number per package: non-test Go lines, benchmark/
# excluded. internal/core may not grow past CORE_LOC_MAX,
# internal/librarian past LIBRARIAN_LOC_MAX, internal/search past
# SEARCH_LOC_MAX nor internal/protocol past PROTOCOL_LOC_MAX, nor the
# packages the write path runs through below the librarian —
# internal/{textproc,index,huffman,store}, counted together — past
# WRITE_LOC_MAX; a change that collapses another of their parallel paths
# lowers the ceiling to what it reached.
# LIBRARIAN_LOC_MAX rose 1756 -> 1786 once, on purpose: Build became MG's two
# passes over the one segment build ingest runs, and that build became one
# scan per document with a per-call word memo (see DESIGN §14).
# WRITE_LOC_MAX rose 2901 -> 2909 once, on purpose: Index.OpenCursor, the
# lookup that reports a missing term without allocating an error, so a
# query over small segments that lack most of its terms allocates nothing
# per missing list.
# WRITE_LOC_MAX rose 2909 -> 3001 once, on purpose: index/group.go, the one
# grouping path of the Central Index (Index.Groups, FoldGroups,
# BuildFromGroups), which librarians run to ship grouped postings instead of
# their whole index and the receptionist runs to fold them, replacing
# RawBuilder; and EachTerm, the k-way vocabulary pass over a librarian's
# segments.
CORE_LOC_MAX = 4717
LIBRARIAN_LOC_MAX = 1646
SEARCH_LOC_MAX = 1526
PROTOCOL_LOC_MAX = 1710
WRITE_LOC_MAX = 2740
loc:
	@write=0; for d in $$($(GO) list -f '{{.Dir}}' ./... | grep -v '/benchmark$$'); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%7d .%s\n' $$n $${d#$(CURDIR)}; \
		case $$d in */internal/core) core=$$n;; */internal/librarian) librarian=$$n;; */internal/search) search=$$n;; */internal/protocol) protocol=$$n;; \
			*/internal/textproc|*/internal/index|*/internal/huffman|*/internal/store) write=$$((write + n));; esac; \
	done; \
	if [ $$core -gt $(CORE_LOC_MAX) ]; then \
		echo "loc: internal/core has $$core non-test lines, the ceiling is $(CORE_LOC_MAX)"; exit 1; \
	fi; \
	if [ $$librarian -gt $(LIBRARIAN_LOC_MAX) ]; then \
		echo "loc: internal/librarian has $$librarian non-test lines, the ceiling is $(LIBRARIAN_LOC_MAX)"; exit 1; \
	fi; \
	if [ $$search -gt $(SEARCH_LOC_MAX) ]; then \
		echo "loc: internal/search has $$search non-test lines, the ceiling is $(SEARCH_LOC_MAX)"; exit 1; \
	fi; \
	if [ $$protocol -gt $(PROTOCOL_LOC_MAX) ]; then \
		echo "loc: internal/protocol has $$protocol non-test lines, the ceiling is $(PROTOCOL_LOC_MAX)"; exit 1; \
	fi; \
	if [ $$write -gt $(WRITE_LOC_MAX) ]; then \
		echo "loc: internal/{textproc,index,huffman,store} have $$write non-test lines, the ceiling is $(WRITE_LOC_MAX)"; exit 1; \
	fi

# Short fuzz runs: long enough to catch regressions in the decoders and
# codec invariants (the wire decoders, the CI set-up's grouped-postings
# reader among them; two compare the windowed bit reader and the block postings
# decoder against bit-at-a-time references; one holds a text model frozen at
# training to restoring any later string; the last compares the write path's
# word scanner with the rune loop it replaced), short enough for every verify
# run. -run='^$$' skips the unit tests, which `race` already covered.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadMessage -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzReadTaggedMessage -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzMessageRoundTrip -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzBatchRoundTrip -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzGroupedIndexReply -fuzztime=$(FUZZTIME) ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzPostingsRoundTrip -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzPostingsDecodeCorrupt -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBlockMatchesReference -fuzztime=$(FUZZTIME) ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzReaderMatchesReference -fuzztime=$(FUZZTIME) ./internal/bitio
	$(GO) test -run='^$$' -fuzz=FuzzFrozenModelRoundTrip -fuzztime=$(FUZZTIME) ./internal/huffman
	$(GO) test -run='^$$' -fuzz=FuzzSplitWordsMatchesReference -fuzztime=$(FUZZTIME) ./internal/textproc

# The one benchmark (BENCHMARK.json, ./benchmark) on a 2k-document corpus
# with 1 s windows: all four workloads, correctness gate included, tracing
# off then on. Writes benchmark/out/results.json.
benchmark-smoke:
	$(GO) run ./benchmark -smoke

# Regenerate BENCH_cache.json: repeated-query throughput with the result
# cache off vs on (the writer is gated on CACHE_BENCH_RECORD).
bench-cache:
	CACHE_BENCH_RECORD=1 $(GO) test -run='^$$' -bench=CacheThroughput .

# Short form for verify: exercises every cache sweep cell without touching
# the recorded BENCH_cache.json numbers.
bench-cache-smoke:
	$(GO) test -run='^$$' -bench=CacheThroughput -benchtime=0.05s .

# Regenerate BENCH_select.json: top-R collection selection swept over fleet
# size and R, reporting throughput, mean fan-out and overlap@10 against full
# fan-out (the writer is gated on SELECT_BENCH_RECORD).
bench-select:
	SELECT_BENCH_RECORD=1 $(GO) test -run='^$$' -bench=SelectThroughput .

# Short form for verify: exercises every selection sweep cell without
# touching the recorded BENCH_select.json numbers.
bench-select-smoke:
	$(GO) test -run='^$$' -bench=SelectThroughput -benchtime=0.05s .

# Regenerate BENCH_replica.json: replica-set throughput with a replica
# killed mid-run, and hedged vs unhedged tail latency against a slow replica
# (the writer is gated on REPLICA_BENCH_RECORD).
bench-replica:
	REPLICA_BENCH_RECORD=1 $(GO) test -run='^$$' -bench=ReplicaThroughput .

# Short form for verify: exercises every replica scenario — kill mid-run,
# hedge race — without touching the recorded BENCH_replica.json numbers.
bench-replica-smoke:
	$(GO) test -run='^$$' -bench=ReplicaThroughput -benchtime=30x .

# Regenerate BENCH_wire.json: seed vs pipelined vs batched framing on a
# shaped WAN link, reporting queries/sec, round-trips/query, bytes/query
# and overlap@10 against the seed wire (the writer is gated on
# WIRE_BENCH_RECORD).
bench-wire:
	WIRE_BENCH_RECORD=1 $(GO) test -run='^$$' -bench=WireThroughput .

# Short form for verify: exercises every wire cell — negotiation, demux,
# batching — without touching the recorded BENCH_wire.json numbers.
bench-wire-smoke:
	$(GO) test -run='^$$' -bench=WireThroughput -benchtime=20x .

# Regenerate BENCH_ingest.json: streaming-ingest docs/sec vs the
# rebuild-and-swap baseline, and query throughput idle vs during continuous
# ingestion (the writer is gated on INGEST_BENCH_RECORD).
bench-ingest:
	INGEST_BENCH_RECORD=1 $(GO) test -run='^$$' -bench=IngestThroughput .

# Short form for verify: exercises every ingest cell — rebuild, streaming,
# query interference — without touching the recorded BENCH_ingest.json
# numbers.
bench-ingest-smoke:
	$(GO) test -run='^$$' -bench=IngestThroughput -benchtime=5x .

# Full search-kernel sweep with allocation reporting; regenerates the
# "current" section of BENCH_search.json (the "baseline" section records
# the pre-kernel evaluator and is preserved).
bench:
	KERNEL_BENCH_SECTION=current $(GO) test -run='^$$' -bench=SearchKernel -benchmem .

# Short form for verify: exercises every sweep cell without rewriting
# BENCH_search.json (the writer is gated on KERNEL_BENCH_SECTION).
bench-smoke:
	$(GO) test -run='^$$' -bench=SearchKernel -benchmem -benchtime=0.05s .

verify: vet build loc race fuzz-smoke benchmark-smoke bench-smoke bench-cache-smoke bench-select-smoke bench-replica-smoke bench-wire-smoke bench-ingest-smoke
	@echo "verify: OK"
