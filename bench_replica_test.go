package teraphim

// BenchmarkReplicaThroughput measures what replica sets buy under failure
// and under tail latency:
//
//   - kill=0 vs kill=1: sustained queries/sec over a 2-replica fleet, with
//     one replica of every librarian killed halfway through the timed run.
//     Retried exchanges land on the surviving sibling, so throughput should
//     sag, not collapse — and zero queries may error or degrade.
//   - hedge=off vs hedge=on: per-query p50/p99 with one replica of every
//     librarian shaped 20ms slow. Unhedged, the tail is the slow replica's;
//     hedged (Options.HedgeAfter = 0.9), a second replica is raced as soon
//     as an exchange outlives the librarian's p90 and the tail collapses to
//     roughly one extra fast round trip.
//
// Run
//
//	go test -bench=ReplicaThroughput -run='^$'
//
// `make bench-replica` sets REPLICA_BENCH_RECORD and regenerates
// BENCH_replica.json (the smoke run in `make verify` leaves the recorded
// numbers alone).

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/trecsynth"
)

// replicaBenchFleet is one freshly built 2-replica deployment: every
// librarian is served by endpoints name#0 and name#1 (one shared Librarian
// instance behind both — replicas of a subcollection without duplicating
// the index), wired through a chaos dialer so the benchmark can kill or
// slow individual replicas.
type replicaBenchFleet struct {
	pool    *Pool
	chaos   *ChaosDialer
	names   []string
	queries []string
}

func newReplicaBenchFleet(b *testing.B, clients int) *replicaBenchFleet {
	b.Helper()
	corpus, err := trecsynth.Generate(trecsynth.SkewedConfig(4, 150))
	if err != nil {
		b.Fatal(err)
	}
	f := &replicaBenchFleet{}
	dialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	replicas := make(map[string][]string)
	link := LinkConfig{Latency: 300 * time.Microsecond}
	for _, sub := range corpus.Subcollections {
		lib, err := librarian.Build(sub.Name, sub.Docs, librarian.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			ep := fmt.Sprintf("%s#%d", sub.Name, i)
			dialer.AddEndpoint(ep, lib, link)
			replicas[sub.Name] = append(replicas[sub.Name], ep)
		}
		f.names = append(f.names, sub.Name)
	}
	f.chaos = NewChaosDialer(dialer)
	pool, err := ConnectPool(f.chaos, f.names, ReceptionistConfig{
		MaxConnsPerLibrarian: clients,
		Replicas:             replicas,
	})
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

// replicaBenchRow is one scenario of BENCH_replica.json.
type replicaBenchRow struct {
	Scenario   string  `json:"scenario"`
	Replicas   int     `json:"replicas"`
	Killed     int     `json:"killed_mid_run"`
	HedgeAfter float64 `json:"hedge_after"`
	Queries    int     `json:"queries"`
	Seconds    float64 `json:"seconds"`
	QueriesSec float64 `json:"queries_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	Hedges     uint64  `json:"hedges_launched"`
	HedgeWins  uint64  `json:"hedges_won"`
}

func durQuantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// runReplicaBench drives clients concurrent query loops for b.N queries,
// invoking disrupt once after half the queries have been dispatched, and
// returns the sorted per-query latencies. Any query error fails the
// benchmark: replication's whole promise is that the scenarios stay green.
func runReplicaBench(b *testing.B, f *replicaBenchFleet, clients int, opts Options, disrupt func()) []time.Duration {
	b.Helper()
	work := make(chan int)
	errs := make(chan error, clients)
	lats := make(chan []time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			for i := range work {
				q := f.queries[i%len(f.queries)]
				qStart := time.Now()
				res, err := f.pool.Query(ModeCN, q, 10, opts)
				if err != nil {
					errs <- fmt.Errorf("query %d (%q): %w", i, q, err)
					return
				}
				if res.Trace.Degraded {
					errs <- fmt.Errorf("query %d (%q): degraded with a live sibling replica", i, q)
					return
				}
				mine = append(mine, time.Since(qStart))
			}
			lats <- mine
			errs <- nil
		}()
	}
	half := b.N / 2
	for i := 0; i < b.N; i++ {
		if i == half && disrupt != nil {
			disrupt()
		}
		work <- i
	}
	close(work)
	wg.Wait()
	close(errs)
	close(lats)
	for err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	var all []time.Duration
	for mine := range lats {
		all = append(all, mine...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func BenchmarkReplicaThroughput(b *testing.B) {
	const clients = 4
	opts := Options{Retries: 2, Backoff: time.Millisecond}
	rows := make(map[string]replicaBenchRow)

	scenarios := []struct {
		name    string
		killed  int
		hedge   float64
		prepare func(f *replicaBenchFleet) // before the timed run
		disrupt func(f *replicaBenchFleet) // at the halfway mark
	}{
		{name: "replicas=2/kill=0"},
		{
			name: "replicas=2/kill=1", killed: 1,
			disrupt: func(f *replicaBenchFleet) {
				for _, name := range f.names {
					f.chaos.Kill(name + "#1")
				}
			},
		},
		{
			name: "slow-replica/hedge=off",
			prepare: func(f *replicaBenchFleet) {
				for _, name := range f.names {
					f.chaos.SetDelay(name+"#0", 20*time.Millisecond)
				}
			},
		},
		{
			name: "slow-replica/hedge=0.9", hedge: 0.9,
			prepare: func(f *replicaBenchFleet) {
				for _, name := range f.names {
					f.chaos.SetDelay(name+"#0", 20*time.Millisecond)
				}
			},
		},
	}
	for _, sc := range scenarios {
		b.Run(sc.name, func(b *testing.B) {
			f := newReplicaBenchFleet(b, clients)
			scOpts := opts
			scOpts.HedgeAfter = sc.hedge
			// Untimed warmup on the healthy fleet: fills the latency trackers
			// past the hedge sample gate, so a hedged scenario hedges from
			// the first timed query instead of partway in.
			for i := 0; i < 8; i++ {
				for _, q := range f.queries[:4] {
					if _, err := f.pool.Query(ModeCN, q, 10, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
			if sc.prepare != nil {
				sc.prepare(f)
			}
			var disrupt func()
			if sc.disrupt != nil {
				disrupt = func() { sc.disrupt(f) }
			}
			hedges0 := f.pool.Metrics().HedgesLaunched()
			wins0 := f.pool.Metrics().HedgesWon()
			b.ResetTimer()
			lats := runReplicaBench(b, f, clients, scOpts, disrupt)
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			var qps float64
			if secs > 0 {
				qps = float64(b.N) / secs
			}
			p50 := durQuantile(lats, 0.50)
			p99 := durQuantile(lats, 0.99)
			b.ReportMetric(qps, "queries/sec")
			b.ReportMetric(float64(p50)/1e6, "p50-ms")
			b.ReportMetric(float64(p99)/1e6, "p99-ms")
			rows[sc.name] = replicaBenchRow{
				Scenario: sc.name, Replicas: 2, Killed: sc.killed,
				HedgeAfter: sc.hedge, Queries: b.N, Seconds: secs,
				QueriesSec: qps,
				P50Ms:      float64(p50) / 1e6,
				P99Ms:      float64(p99) / 1e6,
				Hedges:     f.pool.Metrics().HedgesLaunched() - hedges0,
				HedgeWins:  f.pool.Metrics().HedgesWon() - wins0,
			}
		})
	}
	if os.Getenv("REPLICA_BENCH_RECORD") == "" || len(rows) == 0 {
		return
	}
	out := make([]replicaBenchRow, 0, len(rows))
	for _, sc := range scenarios {
		if r, ok := rows[sc.name]; ok {
			out = append(out, r)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_replica.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_replica.json (%d rows)", len(out))
}
