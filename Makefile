# Development targets. `make verify` is the pre-merge wall: static checks,
# the line ceilings, the full test suite under the race
# detector, the ranking oracles three more times under it, the ingest
# pipeline's schedule-dependent tests twenty more times under it, and short
# fuzz smokes of the wire protocol and postings codec.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race oracle ingest vet loc fuzz-smoke benchmark-smoke bench bench-smoke bench-cache bench-cache-smoke bench-select bench-select-smoke bench-replica bench-replica-smoke bench-wire bench-wire-smoke bench-ingest bench-ingest-smoke verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The ranking oracles (TestOracle, TestEngineAgainstBruteForce,
# TestScoreDocsAgainstBruteForce) draw their trials from
# fixed seeds and run them concurrently; three more runs under the race
# detector give the schedule-dependent paths (batching, hedging, retries
# round a killed replica) more chances to misorder or race.
oracle:
	$(GO) test -race -count=3 -run 'Oracle|AgainstBruteForce' ./internal/core ./internal/search

# The ingest pipeline's schedule-dependent tests — group commit, Flush as a
# watermark, publications racing merges, snapshot isolation, Close's drain,
# backpressure — twenty more runs under the race detector, so that a grouping
# or a wake-up that misorders under a rare interleaving shows.
ingest:
	$(GO) test -race -count=20 -run 'GroupCommit|FlushWaits|MergeStorm|SnapshotNeverMixture|CloseDrains|Backpressure' ./internal/librarian

vet:
	$(GO) vet ./...

# ROADMAP aim 2 in one number per group of packages: non-test Go lines
# under a ceiling that only falls. The ceilings and their raise log live in
# structure_test.go, so tier-1 (go test ./...) runs them too; -v prints each
# group's count against its ceiling.
loc:
	$(GO) test -count=1 -run '^TestLineCeilings$$' -v .

# Short fuzz runs: long enough to catch regressions in the decoders and
# codec invariants (the wire decoders, the CI set-up's grouped-postings
# reader among them; two compare the windowed bit reader and the block
# postings decoder against bit-at-a-time references, and two the bit writer
# and the one-write postings coder against a bit-at-a-time writer and the
# per-field coder; one holds a text model frozen at training to restoring any
# later string, and one holds the model decoder a receptionist runs on its
# peers' bytes to writing them back; one compares the write path's word
# scanner with the rune loop it replaced; one holds Build's one scan to the
# two passes it replaced; the last feeds the index file reader arbitrary
# bytes), short enough for every verify run. -run='^$$' skips the unit tests,
# which `race` already covered.
# -fuzzminimizetime=1s caps the time the engine spends minimising each new
# input, which without it can take most of a short run at 0 execs/sec.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadMessage -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzReadTaggedMessage -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzMessageRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzBatchRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzGroupedIndexReply -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/protocol
	$(GO) test -run='^$$' -fuzz=FuzzPostingsRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzPostingsDecodeCorrupt -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzDecodeBlockMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzAppendListMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/codec
	$(GO) test -run='^$$' -fuzz=FuzzReaderMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/bitio
	$(GO) test -run='^$$' -fuzz=FuzzWriterMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/bitio
	$(GO) test -run='^$$' -fuzz=FuzzFrozenModelRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/huffman
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalTextModel -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/huffman
	$(GO) test -run='^$$' -fuzz=FuzzSplitWordsMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/textproc
	$(GO) test -run='^$$' -fuzz=FuzzBuildMatchesTwoPass -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/librarian
	$(GO) test -run='^$$' -fuzz=FuzzIndexReadFrom -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/index

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

# Regenerate BENCH_wire.json: pipelined vs batched framing on a shaped WAN
# link, reporting queries/sec, round-trips/query, bytes/query and
# overlap@10 against the pipelined cell (the writer is gated on
# WIRE_BENCH_RECORD).
bench-wire:
	WIRE_BENCH_RECORD=1 $(GO) test -run='^$$' -bench=WireThroughput .

# Short form for verify: exercises every wire cell — demux, batching —
# without touching the recorded BENCH_wire.json numbers.
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

verify: vet build loc race oracle ingest fuzz-smoke benchmark-smoke bench-smoke bench-cache-smoke bench-select-smoke bench-replica-smoke bench-wire-smoke bench-ingest-smoke
	@echo "verify: OK"
