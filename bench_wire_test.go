package teraphim

// BenchmarkWireThroughput measures what the wire-efficiency layers buy on a
// link where round trips dominate: a simulated WAN (3ms propagation per
// direction) with a deliberately tight pool (MaxConnsPerLibrarian = 2) and
// 16 concurrent clients.
//
//   - wire=pipelined: tagged frames multiplex the 2 connections, so the
//     16 clients' round trips overlap without any new connections.
//   - wire=batched: rank queries from concurrent clients additionally
//     coalesce into one frame per librarian inside Options.BatchWindow,
//     cutting round trips per query itself.
//
// Each cell reports queries/sec, wire round-trips/query and bytes/query
// (from the pool's teraphim_wire_* counters), plus overlap@10 against the
// pipelined cell's answers for a fixed probe set — batching must not move a
// single result. (BENCH_wire.json also keeps a wire=seed row recorded while
// the pre-version framing still existed.)
//
// Run
//
//	go test -bench=WireThroughput -run='^$'
//
// `make bench-wire` sets WIRE_BENCH_RECORD and regenerates BENCH_wire.json
// (the smoke run in `make verify` leaves the recorded numbers alone).

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/trecsynth"
)

const (
	wireBenchClients = 16
	wireBenchConns   = 2
	wireBenchLatency = 3 * time.Millisecond
	wireBenchWindow  = time.Millisecond
)

// wireBenchFleet is one freshly built deployment on the shaped WAN link.
type wireBenchFleet struct {
	pool    *Pool
	names   []string
	queries []string
}

func newWireBenchFleet(b *testing.B) *wireBenchFleet {
	b.Helper()
	corpus, err := trecsynth.Generate(trecsynth.SkewedConfig(4, 150))
	if err != nil {
		b.Fatal(err)
	}
	f := &wireBenchFleet{}
	dialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	link := LinkConfig{Latency: wireBenchLatency}
	for _, sub := range corpus.Subcollections {
		lib, err := librarian.Build(sub.Name, sub.Docs, librarian.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		dialer.AddEndpoint(sub.Name, lib, link)
		f.names = append(f.names, sub.Name)
	}
	pool, err := ConnectPool(dialer, f.names, ReceptionistConfig{MaxConnsPerLibrarian: wireBenchConns})
	if err != nil {
		b.Fatal(err)
	}
	f.pool = pool
	b.Cleanup(func() { pool.Close() })
	for _, q := range corpus.QueriesOf(trecsynth.ShortQuery) {
		f.queries = append(f.queries, q.Text)
	}
	return f
}

// wireBenchRow is one cell of BENCH_wire.json.
type wireBenchRow struct {
	Wire          string  `json:"wire"`
	Clients       int     `json:"clients"`
	MaxConns      int     `json:"max_conns_per_librarian"`
	LinkLatencyMs float64 `json:"link_latency_ms"`
	BatchWindowMs float64 `json:"batch_window_ms"`
	Queries       int     `json:"queries"`
	Seconds       float64 `json:"seconds"`
	QueriesSec    float64 `json:"queries_per_sec"`
	RTPerQuery    float64 `json:"round_trips_per_query"`
	BytesPerQuery float64 `json:"bytes_per_query"`
	OverlapAt10   float64 `json:"overlap_at_10_vs_pipelined"`
}

// wireBenchProbe runs the fixed probe set untimed and returns each query's
// top-10 answer keys, for the overlap@10 comparison across cells.
func wireBenchProbe(b *testing.B, f *wireBenchFleet, opts Options) [][]string {
	b.Helper()
	probes := f.queries
	if len(probes) > 8 {
		probes = probes[:8]
	}
	tops := make([][]string, len(probes))
	for i, q := range probes {
		res, err := f.pool.Query(ModeCN, q, 10, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range res.Answers {
			tops[i] = append(tops[i], a.Key())
		}
	}
	return tops
}

func overlapAt10(ref, got [][]string) float64 {
	if len(ref) == 0 {
		return 0
	}
	var total float64
	for i := range ref {
		seen := make(map[string]bool, len(ref[i]))
		for _, k := range ref[i] {
			seen[k] = true
		}
		hits := 0
		for _, k := range got[i] {
			if seen[k] {
				hits++
			}
		}
		denom := len(ref[i])
		if denom == 0 {
			total++
			continue
		}
		total += float64(hits) / float64(denom)
	}
	return total / float64(len(ref))
}

func BenchmarkWireThroughput(b *testing.B) {
	rows := make(map[string]wireBenchRow)
	var refTops [][]string

	scenarios := []struct {
		name   string
		window time.Duration
	}{
		{name: "wire=pipelined"},
		{name: "wire=batched", window: wireBenchWindow},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			f := newWireBenchFleet(b)
			opts := Options{BatchWindow: sc.window}
			// Untimed warmup establishes the connections.
			for _, q := range f.queries[:4] {
				if _, err := f.pool.Query(ModeCN, q, 10, Options{}); err != nil {
					b.Fatal(err)
				}
			}
			m := f.pool.Metrics()
			rt0, in0, out0 := m.WireRoundTrips(), m.WireBytesIn(), m.WireBytesOut()
			work := make(chan int)
			errs := make(chan error, wireBenchClients)
			var wg sync.WaitGroup
			b.ResetTimer()
			for c := 0; c < wireBenchClients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range work {
						q := f.queries[i%len(f.queries)]
						if _, err := f.pool.Query(ModeCN, q, 10, opts); err != nil {
							errs <- fmt.Errorf("query %d (%q): %w", i, q, err)
							return
						}
					}
					errs <- nil
				}()
			}
			for i := 0; i < b.N; i++ {
				work <- i
			}
			close(work)
			wg.Wait()
			b.StopTimer()
			close(errs)
			for err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds()
			var qps float64
			if secs > 0 {
				qps = float64(b.N) / secs
			}
			rtPerQ := float64(m.WireRoundTrips()-rt0) / float64(b.N)
			bytesPerQ := float64(m.WireBytesIn()-in0+m.WireBytesOut()-out0) / float64(b.N)
			tops := wireBenchProbe(b, f, opts)
			if sc.window == 0 {
				refTops = tops
			}
			overlap := overlapAt10(refTops, tops)
			b.ReportMetric(qps, "queries/sec")
			b.ReportMetric(rtPerQ, "rt/query")
			b.ReportMetric(bytesPerQ, "bytes/query")
			rows[sc.name] = wireBenchRow{
				Wire:          sc.name[len("wire="):],
				Clients:       wireBenchClients,
				MaxConns:      wireBenchConns,
				LinkLatencyMs: float64(wireBenchLatency) / 1e6,
				BatchWindowMs: float64(sc.window) / 1e6,
				Queries:       b.N,
				Seconds:       secs,
				QueriesSec:    qps,
				RTPerQuery:    rtPerQ,
				BytesPerQuery: bytesPerQ,
				OverlapAt10:   overlap,
			}
		})
	}
	if os.Getenv("WIRE_BENCH_RECORD") == "" || len(rows) == 0 {
		return
	}
	out := make([]wireBenchRow, 0, len(rows))
	for _, sc := range scenarios {
		if r, ok := rows[sc.name]; ok {
			out = append(out, r)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_wire.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_wire.json (%d rows)", len(out))
}
