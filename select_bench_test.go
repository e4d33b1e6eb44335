package teraphim

// BenchmarkSelectThroughput measures what top-R collection selection buys as
// the fleet grows: topically-skewed corpora of 4, 16 and 64 subcollections
// (SkewedCorpusConfig) served over latency-shaped in-process links, swept
// across R. Each cell reports queries/sec, the mean number of librarians a
// query actually contacted, and effectiveness as overlap@10 against the
// same query at full fan-out — the trade the paper's scaling wall is about:
// fewer librarians asked per query buys throughput at a (measured) recall
// cost. Run
//
//	go test -bench=SelectThroughput -run='^$'
//
// `make bench-select` sets SELECT_BENCH_RECORD and regenerates
// BENCH_select.json (the smoke run in `make verify` leaves the recorded
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
	"teraphim/internal/trecsynth"
)

// selectBenchFleetSpec sizes one fleet of the sweep: many small
// subcollections, totals kept near 1000 documents so setup stays cheap as
// the librarian count grows.
var selectBenchFleetSpecs = []struct {
	librarians int
	docsPerSub int
}{
	{4, 150},
	{16, 50},
	{64, 16},
	// The 256-librarian cell probes the scaling wall at real fleet width.
	// Building (and Hello-ing) 256 librarians dominates a smoke run, so the
	// cell joins the sweep only when recording — see the guard in
	// BenchmarkSelectThroughput.
	{256, 4},
}

// selectBenchSmokeMaxLibs caps the sweep in smoke runs (no
// SELECT_BENCH_RECORD): fleets larger than this are skipped so
// `make bench-select-smoke` stays fast.
const selectBenchSmokeMaxLibs = 64

type selectBenchFleet struct {
	dialer  *InProcessDialer
	names   []string
	queries []string
	err     error
}

var (
	selectBenchMu     sync.Mutex
	selectBenchFleets = make(map[int]*selectBenchFleet)
)

// selectFleet builds (once per librarian count) a skewed corpus, its
// librarians and a latency-shaped dialer.
func selectFleet(b *testing.B, librarians, docsPerSub int) *selectBenchFleet {
	b.Helper()
	selectBenchMu.Lock()
	defer selectBenchMu.Unlock()
	if f, ok := selectBenchFleets[librarians]; ok {
		if f.err != nil {
			b.Fatal(f.err)
		}
		return f
	}
	f := &selectBenchFleet{}
	selectBenchFleets[librarians] = f
	corpus, err := trecsynth.Generate(trecsynth.SkewedConfig(librarians, docsPerSub))
	if err != nil {
		f.err = err
		b.Fatal(err)
	}
	var libs []*Librarian
	for _, sub := range corpus.Subcollections {
		lib, err := librarian.Build(sub.Name, sub.Docs, librarian.BuildOptions{})
		if err != nil {
			f.err = err
			b.Fatal(err)
		}
		libs = append(libs, lib)
		f.names = append(f.names, sub.Name)
	}
	// A sub-millisecond one-way delay, as in BenchmarkCacheThroughput: the
	// workload is network-bound, so skipping librarians translates directly
	// into wall-clock time.
	f.dialer = NewInProcessDialer(libs, LinkConfig{Latency: 300 * time.Microsecond})
	for _, q := range corpus.QueriesOf(trecsynth.ShortQuery) {
		f.queries = append(f.queries, q.Text)
	}
	return f
}

// selectBenchRow is one sweep cell of BENCH_select.json.
type selectBenchRow struct {
	Librarians    int     `json:"librarians"`
	TopR          int     `json:"top_r"`
	Queries       int     `json:"queries"`
	Seconds       float64 `json:"seconds"`
	QueriesSec    float64 `json:"queries_per_sec"`
	MeanLibsAsked float64 `json:"mean_librarians_asked"`
	OverlapAtTen  float64 `json:"overlap_at_10_vs_full"`
	EffectQueries int     `json:"effectiveness_queries"`
}

// sweepRs returns the R values swept for one fleet: 1, quarter, half, all.
func sweepRs(librarians int) []int {
	seen := map[int]bool{}
	var rs []int
	for _, r := range []int{1, librarians / 4, librarians / 2, librarians} {
		if r >= 1 && !seen[r] {
			seen[r] = true
			rs = append(rs, r)
		}
	}
	sort.Ints(rs)
	return rs
}

// overlapAtK computes |top-k(got) ∩ top-k(want)| / |top-k(want)|, the
// fraction of the full-fan-out answers the narrowed query kept.
func overlapAtK(got, want []Answer, k int) float64 {
	if len(want) > k {
		want = want[:k]
	}
	if len(got) > k {
		got = got[:k]
	}
	if len(want) == 0 {
		return 1
	}
	keys := make(map[string]bool, len(want))
	for _, a := range want {
		keys[a.Key()] = true
	}
	n := 0
	for _, a := range got {
		if keys[a.Key()] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

func BenchmarkSelectThroughput(b *testing.B) {
	const clients = 4
	rows := make(map[string]selectBenchRow)
	record := os.Getenv("SELECT_BENCH_RECORD") != ""
	for _, spec := range selectBenchFleetSpecs {
		if !record && spec.librarians > selectBenchSmokeMaxLibs {
			continue
		}
		for _, topR := range sweepRs(spec.librarians) {
			name := fmt.Sprintf("libs=%d/topR=%d", spec.librarians, topR)
			b.Run(name, func(b *testing.B) {
				fleet := selectFleet(b, spec.librarians, spec.docsPerSub)
				pool, err := ConnectPool(fleet.dialer, fleet.names,
					ReceptionistConfig{MaxConnsPerLibrarian: clients})
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				if _, err := pool.SetupVocabulary(); err != nil {
					b.Fatal(err)
				}

				// Untimed effectiveness pre-pass: overlap@10 against full
				// fan-out, and the fan-out width selection actually used.
				probe := fleet.queries
				if len(probe) > 16 {
					probe = probe[:16]
				}
				var overlap, asked float64
				for _, q := range probe {
					full, err := pool.Query(ModeCV, q, 10, Options{})
					if err != nil {
						b.Fatal(err)
					}
					sel, err := pool.Query(ModeCV, q, 10, Options{TopR: topR})
					if err != nil {
						b.Fatal(err)
					}
					overlap += overlapAtK(sel.Answers, full.Answers, 10)
					asked += float64(sel.Trace.LibrariansAsked)
				}
				overlap /= float64(len(probe))
				asked /= float64(len(probe))

				work := make(chan int)
				errs := make(chan error, clients)
				var wg sync.WaitGroup
				b.ResetTimer()
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := range work {
							q := fleet.queries[i%len(fleet.queries)]
							if _, err := pool.Query(ModeCV, q, 10, Options{TopR: topR}); err != nil {
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
				secs := b.Elapsed().Seconds()
				var qps float64
				if secs > 0 {
					qps = float64(b.N) / secs
				}
				b.ReportMetric(qps, "queries/sec")
				b.ReportMetric(asked, "libs-asked")
				b.ReportMetric(overlap, "overlap@10")
				rows[name] = selectBenchRow{
					Librarians: spec.librarians, TopR: topR,
					Queries: b.N, Seconds: secs, QueriesSec: qps,
					MeanLibsAsked: asked, OverlapAtTen: overlap,
					EffectQueries: len(probe),
				}
			})
		}
	}
	if os.Getenv("SELECT_BENCH_RECORD") == "" || len(rows) == 0 {
		return
	}
	out := make([]selectBenchRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Librarians != out[j].Librarians {
			return out[i].Librarians < out[j].Librarians
		}
		return out[i].TopR < out[j].TopR
	})
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_select.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_select.json (%d rows)", len(out))
}
