// WAN simulation: the paper's wide-area deployment — librarians in
// Canberra, Brisbane, Hamilton and Tel Aviv, receptionist in Melbourne —
// run in-process with Table 2's measured round-trip times shaped onto the
// links (scaled 20x so the demo finishes quickly), plus the analytic cost
// model's view of the same queries. Coalescing concurrent clients' queries
// into one frame and answering without a lost site are cmd/receptionist's
// -batchwindow and -partial.
//
//	go run ./examples/wansim
package main

import (
	"fmt"
	"log"
	"time"

	"teraphim"
	"teraphim/internal/core"
	"teraphim/internal/costmodel"
	"teraphim/internal/experiments"
	"teraphim/internal/trecsynth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A small synthetic corpus (the full experiment uses cmd/experiments).
	cfg := teraphim.DefaultCorpusConfig()
	cfg.Subs = []trecsynth.SubSpec{
		{Name: "AP", NumDocs: 260},   // Brisbane
		{Name: "FR", NumDocs: 170},   // Hamilton (Waikato)
		{Name: "WSJ", NumDocs: 240},  // Tel Aviv
		{Name: "ZIFF", NumDocs: 200}, // Canberra
	}
	cfg.VocabSize = 4000
	cfg.NumTopics = 16
	cfg.NumShortQueries = 4
	cfg.NumLongQueries = 0

	r, err := experiments.NewRunner(cfg)
	if err != nil {
		return err
	}
	defer r.Close()

	fmt.Println("WAN links (Table 2 of the paper):")
	for name, rtt := range costmodel.WANSites {
		fmt.Printf("  %-5s %2d hops, %.2fs ping\n", name, costmodel.WANHops[name], rtt.Seconds())
	}

	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	fmt.Printf("\nEvaluating %d short queries under CV, replayed against each configuration:\n\n", len(queries))
	fetch := core.Options{Fetch: true, CompressedTransfer: true}
	// The runner speaks the paper's protocol: rank, then a second round to
	// fetch the answers' documents.
	_, twoRounds, err := r.Run(experiments.RunSpec{Label: "CV", Mode: core.ModeCV}, queries, 20, fetch)
	if err != nil {
		return err
	}
	// The same librarians behind a default receptionist: rank replies carry
	// the documents, so a query is one exchange.
	var libs []*teraphim.Librarian
	analyzer := teraphim.NewAnalyzer(teraphim.WithoutStopwords(), teraphim.WithoutStemming())
	var names []string
	for _, sub := range r.Corpus.Subcollections {
		lib, err := teraphim.BuildLibrarianWith(sub.Name, sub.Docs, teraphim.BuildOptions{Analyzer: analyzer})
		if err != nil {
			return err
		}
		libs = append(libs, lib)
		names = append(names, sub.Name)
	}
	oneExchange, err := fetchTraces(libs, names, analyzer, queries, fetch)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-14s %10s %10s %10s\n", "config", "wire", "rank (s)", "fetch (s)", "total (s)")
	for _, c := range costmodel.AllConfigs() {
		for _, wire := range []struct {
			label  string
			traces []*core.Trace
		}{{"two rounds", twoRounds}, {"one exchange", oneExchange}} {
			var rank, fetch time.Duration
			for _, tr := range wire.traces {
				b, err := costmodel.Estimate(c, tr)
				if err != nil {
					return err
				}
				rank += b.Rank
				fetch += b.Fetch
			}
			n := time.Duration(len(wire.traces))
			fmt.Printf("%-12s %-14s %10.3f %10.3f %10.3f\n", c.Name, wire.label,
				(rank / n).Seconds(), (fetch / n).Seconds(), ((rank + fetch) / n).Seconds())
		}
	}

	// And a wall-clock taste of the same thing: real shaped links, scaled
	// 20x so the slowest (Tel Aviv, 1.04s RTT) answers in ~50 ms.
	fmt.Println("\nWall-clock run over delay-shaped in-process links (delays / 20):")
	dialer := teraphim.NewInProcessDialer(libs, teraphim.LinkConfig{TimeScale: 20})
	for name, rtt := range costmodel.WANSites {
		if err := dialer.SetLink(name, teraphim.LinkConfig{
			Latency:   rtt / 2, // one-way
			Bandwidth: 64 << 10,
			TimeScale: 20,
		}); err != nil {
			return err
		}
	}
	pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		return err
	}
	defer func() {
		pool.Close()
		dialer.Wait()
	}()
	if _, err := pool.SetupVocabulary(); err != nil {
		return err
	}
	for _, q := range queries[:2] {
		start := time.Now()
		res, err := pool.Query(teraphim.ModeCV, q.Text, 5, teraphim.Options{})
		if err != nil {
			return err
		}
		fmt.Printf("  query %s: %d answers in %v (x20 ≈ %.2fs real WAN)\n",
			q.ID, len(res.Answers), time.Since(start).Round(time.Millisecond),
			(time.Since(start) * 20).Seconds())
	}
	fmt.Println("\nAs the paper found: wide-area response time is dominated by link latency,")
	fmt.Println("not by computation — handshaking must be kept to an absolute minimum.")

	return nil
}

// fetchTraces runs the queries with document fetch through a default
// receptionist, over unshaped links (the cost model, not
// the clock, prices the traces).
func fetchTraces(libs []*teraphim.Librarian, names []string, analyzer *teraphim.Analyzer, queries []trecsynth.Query, opts core.Options) ([]*core.Trace, error) {
	dialer := teraphim.NewInProcessDialer(libs, teraphim.LinkConfig{})
	pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		return nil, err
	}
	defer func() {
		pool.Close()
		dialer.Wait()
	}()
	if _, err := pool.SetupVocabulary(); err != nil {
		return nil, err
	}
	if _, err := pool.SetupModels(); err != nil {
		return nil, err
	}
	var traces []*core.Trace
	for _, q := range queries {
		res, err := pool.Query(teraphim.ModeCV, q.Text, 20, opts)
		if err != nil {
			return nil, err
		}
		traces = append(traces, &res.Trace)
	}
	return traces, nil
}
