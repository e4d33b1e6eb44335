package teraphim

// BenchmarkIngestThroughput measures what segment-based streaming ingestion
// buys over the seed's rebuild-and-swap update path, and what it costs the
// query side:
//
//   - update=rebuild: the baseline — every 50-document arrival triggers
//     Update over the whole collection (re-tokenize, re-index, re-compress
//     ~2000 docs), the only way the pre-segment API could grow a live
//     collection without renumbering.
//   - update=ingest: the same arrivals through Ingest/Flush — built into
//     segments in O(batch) work (batches that queue behind a build are
//     sealed with it as one segment), with the size-tiered policy merging
//     in the background.
//   - queries=idle: CN query throughput against the final collection (seed
//     plus everything streamed) with no ingestion running — the reference
//     for interference.
//   - queries=during-ingest: the same query load starting from the seed
//     collection while the remaining documents stream in — how much a
//     growing manifest and background merges steal from serving.
//
// Run
//
//	go test -bench=IngestThroughput -run='^$'
//
// `make bench-ingest` sets INGEST_BENCH_RECORD and regenerates
// BENCH_ingest.json (the smoke run in `make verify` leaves the recorded
// numbers alone).

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

const (
	ingestBenchSeedDocs  = 2000
	ingestBenchBatchDocs = 50
	// The during-ingest cell streams a fixed total, paced to one batch per
	// interval (2k docs/sec offered, well past what rebuild-and-swap
	// sustains) so it measures interference between serving and background
	// building over a bounded collection, not CPU starvation by an
	// unbounded producer.
	ingestBenchStreamDocs = 2000
	ingestBenchPace       = 25 * time.Millisecond
)

var ingestBenchVocab = []string{
	"harbor", "tide", "anchor", "compass", "lantern", "storm", "reef",
	"whale", "gull", "mast", "salt", "chart", "drift", "squall", "keel",
	"beacon", "current", "fathom", "horizon", "jetty",
}

func ingestBenchDocs(rng *rand.Rand, n int) []Document {
	docs := make([]Document, n)
	for i := range docs {
		var sb strings.Builder
		for w := 0; w < 12+rng.Intn(20); w++ {
			sb.WriteString(ingestBenchVocab[rng.Intn(len(ingestBenchVocab))])
			sb.WriteByte(' ')
		}
		docs[i] = Document{Title: fmt.Sprintf("d%06d", i), Text: strings.TrimSpace(sb.String())}
	}
	return docs
}

func newIngestBenchLibrarian(b *testing.B, nDocs int, cfg IngestConfig) *Librarian {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	up, err := BuildLibrarian("LIVE", ingestBenchDocs(rng, nDocs))
	if err != nil {
		b.Fatal(err)
	}
	if err := up.ConfigureIngest(cfg); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { up.Close() })
	return up
}

func newIngestBenchPool(b *testing.B, up *Librarian) *Pool {
	b.Helper()
	dialer := NewInProcessDialer([]*Librarian{up}, LinkConfig{})
	pool, err := ConnectPool(dialer, []string{"LIVE"}, ReceptionistConfig{MaxConnsPerLibrarian: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pool.Close() })
	return pool
}

// ingestBenchRow is one cell of BENCH_ingest.json.
type ingestBenchRow struct {
	Mode          string  `json:"mode"`
	SeedDocs      int     `json:"seed_docs"`
	BatchDocs     int     `json:"batch_docs"`
	Iterations    int     `json:"iterations"`
	Seconds       float64 `json:"seconds"`
	DocsPerSec    float64 `json:"docs_per_sec,omitempty"`
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
	SegmentsLive  int     `json:"segments_live,omitempty"`
	Merges        uint64  `json:"merges,omitempty"`
}

func BenchmarkIngestThroughput(b *testing.B) {
	rows := map[string]ingestBenchRow{}
	order := []string{"update=rebuild", "update=ingest", "queries=idle", "queries=during-ingest"}

	b.Run("update=rebuild", func(b *testing.B) {
		rng := rand.New(rand.NewSource(11))
		corpus := ingestBenchDocs(rand.New(rand.NewSource(7)), ingestBenchSeedDocs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			corpus = append(corpus, ingestBenchDocs(rng, ingestBenchBatchDocs)...)
			if _, err := BuildLibrarian("LIVE", corpus); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds()
		docsSec := float64(b.N*ingestBenchBatchDocs) / secs
		b.ReportMetric(docsSec, "docs/sec")
		rows["update=rebuild"] = ingestBenchRow{
			Mode: "rebuild", SeedDocs: ingestBenchSeedDocs, BatchDocs: ingestBenchBatchDocs,
			Iterations: b.N, Seconds: secs, DocsPerSec: docsSec,
		}
	})

	b.Run("update=ingest", func(b *testing.B) {
		up := newIngestBenchLibrarian(b, ingestBenchSeedDocs, IngestConfig{})
		ctx := context.Background()
		rng := rand.New(rand.NewSource(11))
		batches := make([][]Document, b.N)
		for i := range batches {
			batches[i] = ingestBenchDocs(rng, ingestBenchBatchDocs)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := up.Ingest(ctx, batches[i]); err != nil {
				b.Fatal(err)
			}
		}
		// Visibility is part of the contract: time includes the final Flush.
		if err := up.Flush(ctx); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds()
		docsSec := float64(b.N*ingestBenchBatchDocs) / secs
		st := up.SegmentStats()
		b.ReportMetric(docsSec, "docs/sec")
		b.ReportMetric(float64(len(st.Segments)), "segments")
		rows["update=ingest"] = ingestBenchRow{
			Mode: "ingest", SeedDocs: ingestBenchSeedDocs, BatchDocs: ingestBenchBatchDocs,
			Iterations: b.N, Seconds: secs, DocsPerSec: docsSec,
			SegmentsLive: len(st.Segments), Merges: st.Merges,
		}
	})

	b.Run("queries=idle", func(b *testing.B) {
		up := newIngestBenchLibrarian(b, ingestBenchSeedDocs+ingestBenchStreamDocs, IngestConfig{})
		pool := newIngestBenchPool(b, up)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := ingestBenchVocab[i%len(ingestBenchVocab)] + " " + ingestBenchVocab[(i*7)%len(ingestBenchVocab)]
			if _, err := pool.Query(ModeCN, q, 10, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds()
		qps := float64(b.N) / secs
		b.ReportMetric(qps, "queries/sec")
		rows["queries=idle"] = ingestBenchRow{
			Mode: "queries-idle", SeedDocs: ingestBenchSeedDocs, BatchDocs: ingestBenchBatchDocs,
			Iterations: b.N, Seconds: secs, QueriesPerSec: qps,
		}
	})

	b.Run("queries=during-ingest", func(b *testing.B) {
		up := newIngestBenchLibrarian(b, ingestBenchSeedDocs, IngestConfig{})
		pool := newIngestBenchPool(b, up)
		ctx := context.Background()
		producerDone := make(chan error, 1)
		go func() {
			rng := rand.New(rand.NewSource(11))
			for sent := 0; sent < ingestBenchStreamDocs; sent += ingestBenchBatchDocs {
				if err := up.Ingest(ctx, ingestBenchDocs(rng, ingestBenchBatchDocs)); err != nil {
					producerDone <- err
					return
				}
				time.Sleep(ingestBenchPace)
			}
			producerDone <- up.Flush(ctx)
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := ingestBenchVocab[i%len(ingestBenchVocab)] + " " + ingestBenchVocab[(i*7)%len(ingestBenchVocab)]
			if _, err := pool.Query(ModeCN, q, 10, Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := <-producerDone; err != nil {
			b.Fatal(err)
		}
		secs := b.Elapsed().Seconds()
		qps := float64(b.N) / secs
		st := up.SegmentStats()
		b.ReportMetric(qps, "queries/sec")
		b.ReportMetric(float64(len(st.Segments)), "segments")
		rows["queries=during-ingest"] = ingestBenchRow{
			Mode: "queries-during-ingest", SeedDocs: ingestBenchSeedDocs, BatchDocs: ingestBenchBatchDocs,
			Iterations: b.N, Seconds: secs, QueriesPerSec: qps,
			SegmentsLive: len(st.Segments), Merges: st.Merges,
		}
	})

	if os.Getenv("INGEST_BENCH_RECORD") == "" || len(rows) == 0 {
		return
	}
	out := make([]ingestBenchRow, 0, len(rows))
	for _, name := range order {
		if r, ok := rows[name]; ok {
			out = append(out, r)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_ingest.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_ingest.json (%d rows)", len(out))
}
