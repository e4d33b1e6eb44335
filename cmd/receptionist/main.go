// Command receptionist brokers ranked queries to running librarian servers
// under the CN, CV or CI methodology. Every client shares one pool, so the
// set-up exchanges run once however many clients there are.
//
// Usage:
//
//	receptionist -libs AP=localhost:7001,FR=localhost:7002 [-mode cv] [-k 20] [-fetch]
//	receptionist -libs ... -clients 8 [-n 200] < queries.tsv
//
// Queries are read from stdin, one per line; in a tab-separated line (such as
// cmd/trecgen's queries.tsv) the last field is the query. By default each is
// answered at a query> prompt. With -clients N the receptionist instead
// drives N concurrent clients over the pool for -n queries, cycling through
// stdin's, and reports wall-clock throughput, latency percentiles and wire
// cost per query: the multiple-users-at-capacity regime the paper
// distinguishes from single-query response time.
//
// Set-up follows the mode. CV and -topr merge the librarians' vocabularies;
// -fetch with -compressed fetches their text models; CI also builds the
// grouped central index (-group documents per group, -kprime groups expanded
// per query). The load report's setup line counts these exchanges, each per
// librarian: the Hello, one for the vocabulary, one for the models, and eight
// for the central index, which each librarian ships in eight parts.
//
// Repeating a librarian name declares replicas of its subcollection
// (-libs AP=h1:7001,AP=h2:7001 routes AP's exchanges across both endpoints,
// auto-named AP#0 and AP#1); -hedge 0.95 additionally races a second replica
// whenever an exchange outlives that latency quantile.
//
// -obs serves Prometheus /metrics and pprof while the receptionist runs: a
// CPU profile of a load run is /debug/pprof/profile, its heap
// /debug/pprof/heap.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/obs"
	"teraphim/internal/simnet"
	"teraphim/internal/textproc"
)

func main() {
	if err := run(os.Stdout, os.Stdin, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "receptionist:", err)
		os.Exit(1)
	}
}

var modes = map[string]core.Mode{"cn": core.ModeCN, "cv": core.ModeCV, "ci": core.ModeCI}

func run(w io.Writer, stdin io.Reader, args []string) error {
	fs := flag.NewFlagSet("receptionist", flag.ContinueOnError)
	libs := fs.String("libs", "", "comma-separated name=host:port librarian list (required)")
	mode := fs.String("mode", "cv", "methodology: cn, cv or ci")
	k := fs.Int("k", 20, "number of answers")
	kprime := fs.Int("kprime", 0, "CI: groups to expand (0 = paper default)")
	group := fs.Int("group", 10, "CI: documents per central-index group")
	fetch := fs.Bool("fetch", false, "retrieve and display document text")
	compressed := fs.Bool("compressed", true, "use compressed document transfer")
	boolean := fs.Bool("boolean", false, "evaluate queries as Boolean expressions (union across librarians)")
	noStem := fs.Bool("nostem", false, "disable stemming (must match how the collections were built)")
	noStop := fs.Bool("nostop", false, "disable stopword removal (must match how the collections were built)")
	timeout := fs.Duration("timeout", 0, "per-exchange deadline (0 = none)")
	retries := fs.Int("retries", 0, "extra attempts per librarian exchange after a transient failure")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "base retry backoff, doubled per attempt")
	partial := fs.Bool("partial", false, "answer from surviving librarians when some fail")
	minLibs := fs.Int("minlibs", 0, "with -partial, minimum surviving librarians per query (implies -partial)")
	obsAddr := fs.String("obs", "", "serve Prometheus /metrics and pprof on this address (e.g. :9090; empty = off)")
	slowQuery := fs.Duration("slowquery", 0, "log queries slower than this with a per-stage breakdown (0 = off)")
	cache := fs.Int("cache", 0, "enable the result cache with this many entries (0 = off)")
	cacheBytes := fs.Int64("cachebytes", 0, "with -cache, approximate cache size bound in bytes (0 = default)")
	inflight := fs.Int("inflight", 0, "admission control: max concurrently evaluating queries (0 = unlimited)")
	queue := fs.Int("queue", 0, "with -inflight, max queries waiting for admission before shedding")
	queueWait := fs.Duration("queuewait", 0, "with -inflight, max time a query waits for admission (0 = until deadline)")
	topR := fs.Int("topr", 0, "collection selection: contact only the R librarians ranked most promising per query (0 = full fan-out)")
	hedge := fs.Float64("hedge", 0, "race a second replica when an exchange outlives this latency quantile, e.g. 0.95 (0 = off; needs replicated -libs)")
	batchWindow := fs.Duration("batchwindow", 0, "coalesce concurrent rank queries to the same librarian within this window into one frame (0 = off)")
	clients := fs.Int("clients", 0, "drive this many concurrent clients over the pool, one pooled connection per librarian each, and report (0 = interactive prompt)")
	n := fs.Int("n", 200, "with -clients, total queries to issue")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *libs == "" {
		return fmt.Errorf("-libs is required")
	}
	if *clients < 0 || *n < 1 {
		return fmt.Errorf("-clients must not be negative and -n must be positive")
	}
	qmode, ok := modes[strings.ToLower(*mode)]
	if !ok {
		return fmt.Errorf("unsupported mode %q (cn, cv or ci)", *mode)
	}
	dialer, names, replicas, err := parseLibs(*libs)
	if err != nil {
		return err
	}

	var analyzerOpts []textproc.Option
	if *noStem {
		analyzerOpts = append(analyzerOpts, textproc.WithoutStemming())
	}
	if *noStop {
		analyzerOpts = append(analyzerOpts, textproc.WithoutStopwords())
	}
	reg := obs.NewRegistry()
	cfg := core.Config{
		Analyzer:             textproc.NewAnalyzer(analyzerOpts...),
		Metrics:              reg,
		SlowQueryThreshold:   *slowQuery,
		Replicas:             replicas,
		MaxConnsPerLibrarian: *clients,
	}
	if *cache > 0 {
		cfg.Cache = &core.CacheConfig{MaxEntries: *cache, MaxBytes: *cacheBytes}
	}
	if *inflight > 0 {
		cfg.Admission = &core.AdmissionConfig{MaxInFlight: *inflight, MaxQueue: *queue, MaxWait: *queueWait}
	}
	pool, err := core.NewPool(dialer, names, cfg)
	if err != nil {
		return err
	}
	defer pool.Close()
	fed := pool.Federation()
	if *obsAddr != "" {
		srv, err := obs.ListenAndServe(*obsAddr, reg)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "metrics and pprof on http://%s/\n", srv.Addr())
	}
	fmt.Fprintf(w, "connected to %d librarians, %d documents total\n",
		len(fed.Librarians()), fed.TotalDocs())
	for _, name := range fed.Librarians() {
		if eps := replicas[name]; len(eps) > 1 {
			fmt.Fprintf(w, "librarian %s: %d replicas (%s)\n", name, len(eps), strings.Join(eps, ", "))
		}
	}
	if *hedge > 0 {
		fmt.Fprintf(w, "hedging on: racing a second replica past the p%.0f exchange latency\n", *hedge*100)
	}

	// Boolean queries take only the fault-policy options; the rest are
	// validated and ignored.
	opts := core.Options{
		Fetch:              *fetch,
		CompressedTransfer: *compressed,
		KPrime:             *kprime,
		Timeout:            *timeout,
		Retries:            *retries,
		Backoff:            *backoff,
		AllowPartial:       *partial,
		MinLibrarians:      *minLibs,
		TopR:               *topR,
		HedgeAfter:         *hedge,
		BatchWindow:        *batchWindow,
	}
	if err := setUp(w, pool, qmode, opts, *group); err != nil {
		return err
	}
	ask := func(q string) (*core.Result, error) {
		if *boolean {
			return pool.Boolean(context.Background(), q, opts)
		}
		return pool.Query(qmode, q, *k, opts)
	}
	if *clients == 0 {
		return interact(w, stdin, ask, *boolean, *k, *fetch)
	}

	var queries []string
	if err := eachQuery(stdin, func(q string) { queries = append(queries, q) }); err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("no queries on stdin")
	}
	m := pool.Metrics()
	setupTrips, wireIn, wireOut := m.WireRoundTrips(), m.WireBytesIn(), m.WireBytesOut()
	rep, err := drive(ask, queries, *clients, *n)
	if err != nil {
		return err
	}
	done := float64(len(rep.latencies))
	fmt.Fprintf(w, "%d queries, %d clients, mode %s\n", len(rep.latencies), *clients, strings.ToUpper(*mode))
	fmt.Fprintf(w, "setup           %10d round trips, once for all clients\n", setupTrips)
	fmt.Fprintf(w, "wall clock      %10.2fs\n", rep.elapsed.Seconds())
	fmt.Fprintf(w, "throughput      %10.1f queries/sec\n", done/rep.elapsed.Seconds())
	for _, p := range []int{50, 90, 99} {
		fmt.Fprintf(w, "latency p%d     %10.2fms\n", p, rep.percentile(p).Seconds()*1000)
	}
	if *topR > 0 && done > 0 {
		fmt.Fprintf(w, "libs asked      %10.2f mean per query (top-R selection, R=%d of %d)\n",
			float64(rep.askedSum)/done, *topR, len(names))
	}
	if rep.degraded > 0 || rep.retried > 0 {
		fmt.Fprintf(w, "degraded        %10d queries (librarian failures tolerated)\n", rep.degraded)
		fmt.Fprintf(w, "lib failures    %10d\n", rep.libFailures)
		fmt.Fprintf(w, "retried calls   %10d\n", rep.retried)
	}
	if *cache > 0 {
		fmt.Fprintf(w, "cache hits      %10d of %d completed queries\n", rep.cacheHits, len(rep.latencies))
	}
	if *inflight > 0 {
		fmt.Fprintf(w, "shed            %10d queries (overloaded; not counted in latency)\n", rep.shed)
	}
	if *hedge > 0 {
		fmt.Fprintf(w, "hedges          %10d launched, %d won (HedgeAfter %.2f)\n",
			m.HedgesLaunched(), m.HedgesWon(), *hedge)
	}
	if done > 0 {
		fmt.Fprintf(w, "wire rt/query   %10.2f round trips (setup excluded)\n",
			float64(m.WireRoundTrips()-setupTrips)/done)
		fmt.Fprintf(w, "wire bytes/query%10.0f\n",
			float64(m.WireBytesIn()-wireIn+m.WireBytesOut()-wireOut)/done)
	}
	return nil
}

// parseLibs turns the -libs spec into a dialer, the librarian order and the
// replica map. A repeated name declares replicas: its addresses become
// endpoints name#0, name#1, ... routed by the pool's per-librarian router.
func parseLibs(libs string) (simnet.TCPDialer, []string, map[string][]string, error) {
	dialer := simnet.TCPDialer{}
	var names []string
	addrs := map[string][]string{}
	for _, spec := range strings.Split(libs, ",") {
		name, addr, found := strings.Cut(spec, "=")
		if !found {
			return nil, nil, nil, fmt.Errorf("malformed librarian spec %q", spec)
		}
		if len(addrs[name]) == 0 {
			names = append(names, name)
		}
		addrs[name] = append(addrs[name], addr)
	}
	replicas := map[string][]string{}
	for _, name := range names {
		list := addrs[name]
		if len(list) == 1 {
			dialer[name] = list[0]
			continue
		}
		for i, addr := range list {
			ep := fmt.Sprintf("%s#%d", name, i)
			dialer[ep] = addr
			replicas[name] = append(replicas[name], ep)
		}
	}
	return dialer, names, replicas, nil
}

// setUp runs, once on the pool every client shares, the exchanges the mode
// and options need before the first query.
func setUp(w io.Writer, pool *core.Pool, mode core.Mode, opts core.Options, group int) error {
	fed := pool.Federation()
	// Selection ranks librarians from the merged vocabulary statistics, so
	// -topr needs SetupVocabulary even in CN mode.
	if mode != core.ModeCN || opts.TopR > 0 {
		if _, err := pool.SetupVocabulary(); err != nil {
			return err
		}
		terms, bytes := fed.VocabularySize()
		fmt.Fprintf(w, "merged vocabulary: %d terms (%d bytes)\n", terms, bytes)
	}
	if opts.TopR > 0 {
		fmt.Fprintf(w, "collection selection on: top %d of %d librarians per query\n",
			opts.TopR, len(fed.Librarians()))
	}
	if opts.Fetch && opts.CompressedTransfer {
		if _, err := pool.SetupModels(); err != nil {
			return err
		}
	}
	if mode == core.ModeCI {
		if _, err := pool.SetupCentralIndexRemote(group); err != nil {
			return err
		}
		fmt.Fprintf(w, "central index: groups of %d documents\n", group)
	}
	return nil
}

// eachQuery calls fn with every non-empty line of r, reduced to its last
// tab-separated field.
func eachQuery(r io.Reader, fn func(string)) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64<<10), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		if i := strings.LastIndexByte(line, '\t'); i >= 0 {
			line = line[i+1:]
		}
		if line = strings.TrimSpace(line); line != "" {
			fn(line)
		}
	}
	return scanner.Err()
}

// interact answers each query on stdin at a query> prompt.
func interact(w io.Writer, stdin io.Reader, ask func(string) (*core.Result, error), boolean bool, k int, fetch bool) error {
	fmt.Fprint(w, "query> ")
	err := eachQuery(stdin, func(q string) {
		defer fmt.Fprint(w, "query> ")
		res, err := ask(q)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			return
		}
		tr := &res.Trace
		switch {
		case boolean:
			fmt.Fprintf(w, "%d documents match across %d librarians\n", len(res.Answers), tr.LibrariansAsked)
		case tr.CacheHit:
			fmt.Fprintf(w, "%d answers (cached; no librarian round trips)\n", len(res.Answers))
		case tr.LibrariansSelected > 0:
			fmt.Fprintf(w, "%d answers from the %d selected librarians (%d candidates merged, %d bytes moved)\n",
				len(res.Answers), tr.LibrariansSelected, tr.MergeCandidates, tr.BytesTransferred(0))
		default:
			fmt.Fprintf(w, "%d answers from %d librarians (%d candidates merged, %d bytes moved)\n",
				len(res.Answers), tr.LibrariansAsked, tr.MergeCandidates, tr.BytesTransferred(0))
		}
		reportFaults(w, tr)
		for i, a := range res.Answers {
			if boolean {
				if i == k {
					break
				}
				fmt.Fprintf(w, "  %s\n", a.Key())
				continue
			}
			fmt.Fprintf(w, "%3d. %-24s %.4f", i+1, a.Key(), a.Score)
			if a.Title != "" {
				fmt.Fprintf(w, "  %s", a.Title)
			}
			fmt.Fprintln(w)
			if fetch {
				fmt.Fprintf(w, "     %s\n", firstLine(a.Text))
			}
		}
	})
	return err
}

// reportFaults prints what the fault-tolerance machinery did for one query:
// librarians answered without, retried exchanges, hedges.
func reportFaults(w io.Writer, tr *core.Trace) {
	if tr.Degraded {
		fmt.Fprintf(w, "DEGRADED: answered without %d librarian(s)\n", len(tr.Failures))
		for _, f := range tr.Failures {
			fmt.Fprintf(w, "  %s failed in %s phase after %d attempt(s): %v\n",
				f.Librarian, f.Phase, f.Attempts, f.Err)
		}
	}
	if retried := tr.RetryAttempts(); retried > 0 {
		fmt.Fprintf(w, "recovered after %d retried exchange(s)\n", retried)
	}
	if tr.Hedges > 0 {
		fmt.Fprintf(w, "hedged %d exchange(s), %d won the race\n", tr.Hedges, tr.HedgeWins)
	}
}

func firstLine(text string) string {
	if i := strings.IndexByte(text, '\n'); i >= 0 {
		text = text[:i]
	}
	if len(text) > 120 {
		text = text[:120] + "..."
	}
	return text
}

// load is what a -clients run tallies over its completed queries.
type load struct {
	latencies []time.Duration // sorted once the run ends
	elapsed   time.Duration
	// Fault tolerance: queries answered degraded, librarian failures
	// tolerated, exchanges that needed a retry.
	degraded, libFailures, retried int
	// Overload protection: queries served from the result cache, and
	// queries shed by admission control (not counted in latency).
	cacheHits, shed int
	// Fan-out width: librarians contacted, summed (cache hits contact none
	// and drag the mean down, as they should).
	askedSum int
}

// drive runs n queries, cycling through queries, from clients concurrent
// goroutines over the one pool behind ask. A shed query is admission control
// working as intended and is tallied; any other error ends the run.
func drive(ask func(string) (*core.Result, error), queries []string, clients, n int) (*load, error) {
	rep := &load{latencies: make([]time.Duration, 0, n)}
	var next atomic.Int64
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				qStart := time.Now()
				res, err := ask(queries[i%len(queries)])
				took := time.Since(qStart)
				mu.Lock()
				switch {
				case errors.Is(err, core.ErrOverloaded):
					rep.shed++
				case err != nil:
					if firstErr == nil {
						firstErr = fmt.Errorf("query %d: %w", i, err)
					}
					next.Store(int64(n))
				default:
					rep.latencies = append(rep.latencies, took)
					if res.Trace.Degraded {
						rep.degraded++
						rep.libFailures += len(res.Trace.Failures)
					}
					if res.Trace.CacheHit {
						rep.cacheHits++
					}
					rep.retried += res.Trace.RetryAttempts()
					rep.askedSum += res.Trace.LibrariansAsked
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.elapsed = time.Since(start)
	sort.Slice(rep.latencies, func(i, j int) bool { return rep.latencies[i] < rep.latencies[j] })
	return rep, firstErr
}

// percentile returns the p-th percentile latency (nearest rank below), or 0
// if no query completed.
func (l *load) percentile(p int) time.Duration {
	if len(l.latencies) == 0 {
		return 0
	}
	return l.latencies[(len(l.latencies)-1)*p/100]
}
