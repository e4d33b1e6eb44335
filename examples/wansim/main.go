// WAN simulation: the paper's wide-area deployment — librarians in
// Canberra, Brisbane, Hamilton and Tel Aviv, receptionist in Melbourne —
// run in-process with Table 2's measured round-trip times shaped onto the
// links (scaled 20x so the demo finishes quickly), plus the analytic cost
// model's view of the same queries.
//
//	go run ./examples/wansim
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
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

	// That remedy is a wire-level lever here: every connection is
	// pipelined, and Options.BatchWindow coalesces concurrent clients'
	// queries to the same librarian into one round trip. Same fleet and
	// links, eight concurrent clients, no window vs a 5 ms window.
	fmt.Println("\nWire efficiency: 8 concurrent clients over the same WAN links:")
	for _, wire := range []struct {
		label  string
		window time.Duration
	}{
		{label: "pipelined, no window"},
		{label: "pipelined + 5ms batch window", window: 5 * time.Millisecond},
	} {
		pool, err := teraphim.ConnectPool(dialer, names, teraphim.ReceptionistConfig{
			Analyzer:             analyzer,
			MaxConnsPerLibrarian: 2,
		})
		if err != nil {
			return err
		}
		if _, err := pool.SetupVocabulary(); err != nil {
			pool.Close()
			return err
		}
		m := pool.Metrics()
		rt0 := m.WireRoundTrips()
		const wireClients = 8
		errs := make(chan error, wireClients)
		start := time.Now()
		for c := 0; c < wireClients; c++ {
			go func(c int) {
				for _, q := range queries {
					if _, err := pool.Query(teraphim.ModeCV, q.Text, 5,
						teraphim.Options{BatchWindow: wire.window}); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}(c)
		}
		for c := 0; c < wireClients; c++ {
			if err := <-errs; err != nil {
				pool.Close()
				return err
			}
		}
		elapsed := time.Since(start)
		done := wireClients * len(queries)
		fmt.Printf("  %-28s %2d queries in %7v, %4.1f wire round trips/query\n",
			wire.label, done, elapsed.Round(time.Millisecond),
			float64(m.WireRoundTrips()-rt0)/float64(done))
		pool.Close()
	}

	// On a real WAN, sites also disappear: the paper's Tel Aviv link was the
	// slowest and flakiest. Demonstrate degraded operation — WSJ answers its
	// setup exchanges and then drops off the network for good; with
	// AllowPartial the receptionist retries, gives up, and still answers the
	// query from the three surviving sites.
	fmt.Println("\nDegraded operation: the Tel Aviv librarian (WSJ) dies after setup:")
	flaky := &flakySite{inner: dialer, site: "WSJ", writesLeft: 2} // Hello + vocabulary
	pool2, err := teraphim.ConnectPool(flaky, names, teraphim.ReceptionistConfig{Analyzer: analyzer})
	if err != nil {
		return err
	}
	defer pool2.Close()
	if _, err := pool2.SetupVocabulary(); err != nil {
		return err
	}
	res, err := pool2.Query(teraphim.ModeCV, queries[0].Text, 5, teraphim.Options{
		Retries:      1,
		Backoff:      10 * time.Millisecond,
		AllowPartial: true,
	})
	if err != nil {
		return err
	}
	fmt.Printf("  query %s: %d answers from the survivors (degraded=%v)\n",
		queries[0].ID, len(res.Answers), res.Trace.Degraded)
	for _, f := range res.Trace.Failures {
		fmt.Printf("  lost %s in the %s phase after %d attempt(s): %v\n",
			f.Librarian, f.Phase, f.Attempts, f.Err)
	}
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

// flakySite fails one site mid-session: its first connection permits
// writesLeft writes (enough for the setup exchanges) before the link drops,
// and every redial is refused.
type flakySite struct {
	inner teraphim.Dialer
	site  string
	// writesLeft counts protocol messages the first connection will accept;
	// dialed tracks whether the one doomed connection was already handed out.
	writesLeft int
	dialed     bool
}

func (f *flakySite) Dial(name string) (net.Conn, error) {
	if name != f.site {
		return f.inner.Dial(name)
	}
	if f.dialed {
		return nil, errors.New("no route to host")
	}
	f.dialed = true
	conn, err := f.inner.Dial(name)
	if err != nil {
		return nil, err
	}
	return &dyingConn{Conn: conn, writesLeft: f.writesLeft}, nil
}

// dyingConn forwards writesLeft whole messages, then fails every write —
// each protocol.WriteMessage issues exactly one Write call.
type dyingConn struct {
	net.Conn
	writesLeft int
}

func (c *dyingConn) Write(p []byte) (int, error) {
	if c.writesLeft <= 0 {
		return 0, errors.New("link down")
	}
	c.writesLeft--
	return c.Conn.Write(p)
}
