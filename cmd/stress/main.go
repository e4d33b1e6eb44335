// Command stress drives concurrent query load at running librarian servers
// and reports wall-clock throughput and latency percentiles — the
// multiple-users-at-capacity regime the paper distinguishes from single
// query response time. All clients share one federation: the vocabulary,
// model and central-index setup exchanges run exactly once regardless of
// -clients, and the clients fan out over a bounded per-librarian
// connection pool. The report's setup line counts those exchanges: one Hello
// and one vocabulary exchange per librarian, and under CI eight more, since
// each librarian ships its grouped index in eight parts.
//
// Usage:
//
//	stress -libs AP=host:7001,FR=host:7002 -queryfile queries.txt \
//	       [-mode cv] [-clients 8] [-conns 0] [-n 200] [-k 20] [-fetch]
//
// Repeating a librarian name declares replicas of its subcollection
// (-libs AP=h1:7001,AP=h2:7001 routes AP's exchanges across both endpoints,
// auto-named AP#0 and AP#1); -hedge 0.95 additionally races a second replica
// whenever an exchange outlives that latency quantile.
//
// The query file holds one query per line (cmd/trecgen's queries.tsv also
// works; the last tab-separated field is used).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/obs"
	"teraphim/internal/simnet"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("stress", flag.ContinueOnError)
	libs := fs.String("libs", "", "comma-separated name=host:port librarian list (required)")
	queryFile := fs.String("queryfile", "", "file of queries, one per line (required)")
	mode := fs.String("mode", "cv", "methodology: cn, cv or ci")
	clients := fs.Int("clients", 8, "concurrent client sessions over the shared pool")
	conns := fs.Int("conns", 0, "max pooled connections per librarian (0 = match -clients)")
	n := fs.Int("n", 200, "total queries to issue")
	k := fs.Int("k", 20, "answers per query")
	kprime := fs.Int("kprime", 0, "CI: groups to expand (0 = paper default)")
	group := fs.Int("group", 10, "CI: documents per central-index group")
	fetch := fs.Bool("fetch", false, "retrieve documents too")
	timeout := fs.Duration("timeout", 0, "per-exchange deadline (0 = none)")
	retries := fs.Int("retries", 0, "extra attempts per librarian exchange after a transient failure")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "base retry backoff, doubled per attempt")
	partial := fs.Bool("partial", false, "answer from surviving librarians when some fail")
	minLibs := fs.Int("minlibs", 0, "with -partial, minimum surviving librarians per query (implies -partial)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the query run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the run) to this file")
	obsAddr := fs.String("obs", "", "serve Prometheus /metrics and pprof during the run (e.g. :9090; empty = off)")
	slowQuery := fs.Duration("slowquery", 0, "log queries slower than this with a per-stage breakdown (0 = off)")
	cache := fs.Int("cache", 0, "enable the result cache with this many entries (0 = off)")
	cacheBytes := fs.Int64("cachebytes", 0, "with -cache, approximate cache size bound in bytes (0 = default)")
	inflight := fs.Int("inflight", 0, "admission control: max concurrently evaluating queries (0 = unlimited)")
	queue := fs.Int("queue", 0, "with -inflight, max queries waiting for admission before shedding")
	queueWait := fs.Duration("queuewait", 0, "with -inflight, max time a query waits for admission (0 = until deadline)")
	topR := fs.Int("topr", 0, "collection selection: contact only the R librarians ranked most promising per query (0 = full fan-out)")
	hedge := fs.Float64("hedge", 0, "race a second replica when an exchange outlives this latency quantile, e.g. 0.95 (0 = off; needs replicated -libs)")
	batchWindow := fs.Duration("batchwindow", 0, "coalesce concurrent rank queries to the same librarian within this window into one frame (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *libs == "" || *queryFile == "" {
		return fmt.Errorf("-libs and -queryfile are required")
	}
	if *clients < 1 || *n < 1 {
		return fmt.Errorf("-clients and -n must be positive")
	}
	var qmode core.Mode
	switch strings.ToLower(*mode) {
	case "cn":
		qmode = core.ModeCN
	case "cv":
		qmode = core.ModeCV
	case "ci":
		qmode = core.ModeCI
	default:
		return fmt.Errorf("unsupported mode %q", *mode)
	}

	queries, err := loadQueries(*queryFile)
	if err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("no queries in %s", *queryFile)
	}

	dialer, names, replicas, err := parseLibs(*libs)
	if err != nil {
		return err
	}

	maxConns := *conns
	if maxConns <= 0 {
		maxConns = *clients
	}
	opts := core.Options{
		Fetch:              *fetch,
		CompressedTransfer: false,
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
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	reg := obs.NewRegistry()
	if *obsAddr != "" {
		srv, err := obs.ListenAndServe(*obsAddr, reg)
		if err != nil {
			return fmt.Errorf("obs endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(w, "metrics and pprof on http://%s/ for the duration of the run\n", srv.Addr())
	}
	cfg := core.Config{MaxConnsPerLibrarian: maxConns, Metrics: reg, SlowQueryThreshold: *slowQuery, Replicas: replicas}
	if *cache > 0 {
		cfg.Cache = &core.CacheConfig{MaxEntries: *cache, MaxBytes: *cacheBytes}
	}
	if *inflight > 0 {
		cfg.Admission = &core.AdmissionConfig{MaxInFlight: *inflight, MaxQueue: *queue, MaxWait: *queueWait}
	}
	report, err := drive(dialer, names, qmode, queries, *clients, *n, *k, *group, opts, cfg)
	if err != nil {
		return err
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	fmt.Fprintf(w, "%d queries, %d clients, mode %s\n", report.completed, *clients, strings.ToUpper(*mode))
	fmt.Fprintf(w, "setup           %10d round trips, once for all clients\n", report.setupTrips)
	fmt.Fprintf(w, "wall clock      %10.2fs\n", report.elapsed.Seconds())
	fmt.Fprintf(w, "throughput      %10.1f queries/sec\n", report.throughput)
	fmt.Fprintf(w, "latency p50     %10.2fms\n", ms(report.p50))
	fmt.Fprintf(w, "latency p90     %10.2fms\n", ms(report.p90))
	fmt.Fprintf(w, "latency p99     %10.2fms\n", ms(report.p99))
	if *topR > 0 && report.completed > 0 {
		fmt.Fprintf(w, "libs asked      %10.2f mean per query (top-R selection, R=%d of %d)\n",
			float64(report.askedSum)/float64(report.completed), *topR, len(names))
	}
	if report.degraded > 0 || report.retried > 0 {
		fmt.Fprintf(w, "degraded        %10d queries (librarian failures tolerated)\n", report.degraded)
		fmt.Fprintf(w, "lib failures    %10d\n", report.libFailures)
		fmt.Fprintf(w, "retried calls   %10d\n", report.retried)
	}
	if *cache > 0 {
		fmt.Fprintf(w, "cache hits      %10d of %d completed queries\n", report.cacheHits, report.completed)
	}
	if *inflight > 0 {
		fmt.Fprintf(w, "shed            %10d queries (overloaded; not counted in latency)\n", report.shed)
	}
	if *hedge > 0 {
		fmt.Fprintf(w, "hedges          %10d launched, %d won (HedgeAfter %.2f)\n",
			report.hedges, report.hedgeWins, *hedge)
	}
	if report.completed > 0 {
		fmt.Fprintf(w, "wire rt/query   %10.2f round trips (setup excluded)\n",
			float64(report.wireTrips)/float64(report.completed))
		fmt.Fprintf(w, "wire bytes/query%10.0f\n",
			float64(report.wireBytes)/float64(report.completed))
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
	if len(replicas) == 0 {
		replicas = nil
	}
	return dialer, names, replicas, nil
}

type report struct {
	completed     int
	setupTrips    int
	elapsed       time.Duration
	throughput    float64
	p50, p90, p99 time.Duration
	// Fault-tolerance tallies: queries answered degraded, individual
	// librarian failures tolerated, and exchanges that needed a retry.
	degraded    int
	libFailures int
	retried     int
	// Overload-protection tallies: queries served from the result cache and
	// queries shed by admission control.
	cacheHits int
	shed      int
	// Fan-out width: librarians contacted, summed over completed queries
	// (cache hits contact none and drag the mean down, as they should).
	askedSum int
	// Hedging tallies from the pool metrics: replica races launched and won.
	hedges    uint64
	hedgeWins uint64
	// Wire cost of the timed run (setup exchanges excluded): completed
	// librarian round trips and bytes moved in either direction.
	wireTrips uint64
	wireBytes uint64
}

// drive runs the benchmark: one pool is set up once (Hello + whatever the
// mode needs), then clients pull query indexes from a shared channel, each
// as a lightweight session over the shared federation.
func drive(dialer simnet.Dialer, names []string, mode core.Mode, queries []string,
	clients, n, k, group int, opts core.Options, cfg core.Config) (report, error) {
	pool, err := core.NewPool(dialer, names, cfg)
	if err != nil {
		return report{}, err
	}
	defer pool.Close()
	setupTrips := len(names) // the Hello exchange
	// Top-R selection ranks librarians from the merged vocabulary
	// statistics, so it needs SetupVocabulary even under CN.
	if mode == core.ModeCV || mode == core.ModeCI || opts.TopR > 0 {
		trace, err := pool.SetupVocabulary()
		if err != nil {
			return report{}, err
		}
		setupTrips += trace.RoundTrips(core.PhaseSetup)
	}
	if mode == core.ModeCI {
		trace, err := pool.SetupCentralIndexRemote(group)
		if err != nil {
			return report{}, err
		}
		setupTrips += trace.RoundTrips(core.PhaseSetup)
	}

	// Snapshot the wire counters after setup so the report's per-query
	// figures cover only the timed run.
	m := pool.Metrics()
	wireTrips0, wireIn0, wireOut0 := m.WireRoundTrips(), m.WireBytesIn(), m.WireBytesOut()

	work := make(chan int)
	go func() {
		defer close(work)
		for i := 0; i < n; i++ {
			work <- i
		}
	}()

	latencies := make([]time.Duration, 0, n)
	var degraded, libFailures, retried, cacheHits, shed, askedSum int
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				qStart := time.Now()
				res, err := pool.Query(mode, queries[i%len(queries)], k, opts)
				if err != nil {
					// A shed query is the admission control working as
					// intended, not a run-ending failure: tally it and move
					// on so the report shows survivable load, not a crash.
					if errors.Is(err, core.ErrOverloaded) {
						mu.Lock()
						shed++
						mu.Unlock()
						continue
					}
					errs <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				mu.Lock()
				latencies = append(latencies, time.Since(qStart))
				if res.Trace.Degraded {
					degraded++
					libFailures += len(res.Trace.Failures)
				}
				if res.Trace.CacheHit {
					cacheHits++
				}
				retried += res.Trace.RetryAttempts()
				askedSum += res.Trace.LibrariansAsked
				mu.Unlock()
			}
			errs <- nil
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return report{}, err
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep := report{completed: len(latencies), setupTrips: setupTrips, elapsed: elapsed,
		degraded: degraded, libFailures: libFailures, retried: retried,
		cacheHits: cacheHits, shed: shed, askedSum: askedSum,
		hedges: pool.Metrics().HedgesLaunched(), hedgeWins: pool.Metrics().HedgesWon(),
		wireTrips: m.WireRoundTrips() - wireTrips0,
		wireBytes: (m.WireBytesIn() - wireIn0) + (m.WireBytesOut() - wireOut0)}
	if elapsed > 0 {
		rep.throughput = float64(len(latencies)) / elapsed.Seconds()
	}
	if len(latencies) > 0 {
		rep.p50 = percentile(latencies, 50)
		rep.p90 = percentile(latencies, 90)
		rep.p99 = percentile(latencies, 99)
	}
	return rep, nil
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// loadQueries reads one query per line; for TSV lines the last field is the
// query text.
func loadQueries(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if i := strings.LastIndexByte(line, '\t'); i >= 0 {
			line = line[i+1:]
		}
		out = append(out, line)
	}
	return out, scanner.Err()
}
