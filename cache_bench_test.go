package teraphim

// BenchmarkCacheThroughput measures what the receptionist result cache buys
// on a repeated-query workload: N client goroutines fanning out over one
// shared Pool (CV over latency-shaped links), run cache-off and cache-on. With the cache every repeat of the 24-query rotation is answered
// from memory — no librarian round trips — so throughput decouples from the
// simulated network entirely. Run
//
//	go test -bench=CacheThroughput -run='^$'
//
// Each sub-benchmark reports queries/sec and cache hits; `make bench-cache`
// sets CACHE_BENCH_RECORD and regenerates BENCH_cache.json (the smoke run in
// `make verify` leaves the recorded numbers alone).

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/trecsynth"
)

var (
	poolBenchOnce    sync.Once
	poolBenchDialer  *InProcessDialer
	poolBenchNames   []string
	poolBenchQueries []string
	poolBenchErr     error
)

// poolBenchSetup builds three librarians from a reduced synthetic corpus and
// wires them behind an in-process dialer, once for the whole sweep.
func poolBenchSetup(b *testing.B) {
	b.Helper()
	poolBenchOnce.Do(func() {
		cfg := trecsynth.DefaultConfig()
		cfg.Subs = []trecsynth.SubSpec{
			{Name: "AP", NumDocs: 250},
			{Name: "FR", NumDocs: 200},
			{Name: "WSJ", NumDocs: 250},
		}
		cfg.VocabSize = 3000
		cfg.NumTopics = 20
		cfg.NumLongQueries = 8
		cfg.NumShortQueries = 24
		corpus, err := trecsynth.Generate(cfg)
		if err != nil {
			poolBenchErr = err
			return
		}
		var libs []*Librarian
		for _, sub := range corpus.Subcollections {
			lib, err := librarian.Build(sub.Name, sub.Docs, librarian.BuildOptions{})
			if err != nil {
				poolBenchErr = err
				return
			}
			libs = append(libs, lib)
			poolBenchNames = append(poolBenchNames, sub.Name)
		}
		// Shape the links with a sub-millisecond one-way delay so the
		// workload is network-bound, like the paper's LAN/WAN settings:
		// throughput then scales with clients by overlapping waits,
		// which a CPU-bound in-process loop could not show on one core.
		poolBenchDialer = NewInProcessDialer(libs, LinkConfig{Latency: 500 * time.Microsecond})
		for _, q := range corpus.QueriesOf(trecsynth.ShortQuery) {
			poolBenchQueries = append(poolBenchQueries, q.Text)
		}
	})
	if poolBenchErr != nil {
		b.Fatal(poolBenchErr)
	}
}

type cacheBenchRow struct {
	Cache      bool    `json:"cache"`
	Clients    int     `json:"clients"`
	Queries    int     `json:"queries"`
	CacheHits  uint64  `json:"cache_hits"`
	Seconds    float64 `json:"seconds"`
	QueriesSec float64 `json:"queries_per_sec"`
}

func BenchmarkCacheThroughput(b *testing.B) {
	poolBenchSetup(b)
	specs := []struct {
		label string
		cache *CacheConfig
	}{
		{"cache=off", nil},
		{"cache=on", &CacheConfig{}},
	}
	rows := make(map[string]cacheBenchRow)
	for _, spec := range specs {
		for _, clients := range []int{1, 4, 8} {
			name := fmt.Sprintf("%s/clients=%d", spec.label, clients)
			b.Run(name, func(b *testing.B) {
				pool, err := ConnectPool(poolBenchDialer, poolBenchNames,
					ReceptionistConfig{MaxConnsPerLibrarian: clients, Cache: spec.cache})
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				if _, err := pool.SetupVocabulary(); err != nil {
					b.Fatal(err)
				}
				work := make(chan int)
				errs := make(chan error, clients)
				var wg sync.WaitGroup
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range work {
							q := poolBenchQueries[i%len(poolBenchQueries)]
							if _, err := pool.Query(ModeCV, q, 20, Options{}); err != nil {
								errs <- err
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
				var hits uint64
				if stats, ok := pool.CacheStats(); ok {
					hits = stats.Hits
				}
				secs := b.Elapsed().Seconds()
				var qps float64
				if secs > 0 {
					qps = float64(b.N) / secs
				}
				b.ReportMetric(qps, "queries/sec")
				rows[name] = cacheBenchRow{
					Cache: spec.cache != nil, Clients: clients,
					Queries: b.N, CacheHits: hits, Seconds: secs, QueriesSec: qps,
				}
			})
		}
	}
	if os.Getenv("CACHE_BENCH_RECORD") == "" || len(rows) == 0 {
		return
	}
	out := make([]cacheBenchRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cache != out[j].Cache {
			return !out[i].Cache
		}
		return out[i].Clients < out[j].Clients
	})
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cache.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_cache.json (%d rows)", len(out))
}
