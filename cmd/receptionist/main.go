// Command receptionist brokers ranked queries to running librarian servers
// under the CN, CV or CI methodology.
//
// Usage:
//
//	receptionist -libs AP=localhost:7001,FR=localhost:7002 [-mode cv] [-k 20] [-fetch]
//
// Repeating a librarian name declares replicas of its subcollection
// (-libs AP=h1:7001,AP=h2:7001 routes AP's exchanges across both endpoints,
// auto-named AP#0 and AP#1); -hedge 0.95 additionally races a second replica
// whenever an exchange outlives that latency quantile.
//
// Queries are read from stdin, one per line. CI mode additionally requires
// -groupdocs pointing at the documents so the grouped central index can be
// built (the offline preprocessing step); for in-process experimentation
// prefer cmd/experiments.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/obs"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/textproc"
)

func main() {
	if err := run(os.Stdout, os.Stdin, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "receptionist:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, stdin io.Reader, args []string) error {
	fs := flag.NewFlagSet("receptionist", flag.ContinueOnError)
	libs := fs.String("libs", "", "comma-separated name=host:port librarian list (required)")
	mode := fs.String("mode", "cv", "methodology: cn or cv")
	k := fs.Int("k", 20, "number of answers")
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
	evalName := fs.String("eval", "exact", "rank evaluation strategy: exact, maxscore or wand (rank-safe dynamic pruning)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *libs == "" {
		return fmt.Errorf("-libs is required")
	}
	evaluator, err := search.ParseEvaluator(*evalName)
	if err != nil {
		return err
	}
	var qmode core.Mode
	switch strings.ToLower(*mode) {
	case "cn":
		qmode = core.ModeCN
	case "cv":
		qmode = core.ModeCV
	default:
		return fmt.Errorf("unsupported mode %q (cn or cv; see cmd/experiments for ci)", *mode)
	}

	// A repeated name in -libs declares replicas: its addresses become
	// endpoints name#0, name#1, ... routed by the pool's replica router.
	dialer := simnet.TCPDialer{}
	var names []string
	addrs := map[string][]string{}
	for _, spec := range strings.Split(*libs, ",") {
		name, addr, found := strings.Cut(spec, "=")
		if !found {
			return fmt.Errorf("malformed librarian spec %q", spec)
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

	var analyzerOpts []textproc.Option
	if *noStem {
		analyzerOpts = append(analyzerOpts, textproc.WithoutStemming())
	}
	if *noStop {
		analyzerOpts = append(analyzerOpts, textproc.WithoutStopwords())
	}
	reg := obs.NewRegistry()
	cfg := core.Config{
		Analyzer:           textproc.NewAnalyzer(analyzerOpts...),
		Metrics:            reg,
		SlowQueryThreshold: *slowQuery,
	}
	if len(replicas) > 0 {
		cfg.Replicas = replicas
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

	// Selection ranks librarians from the merged vocabulary statistics, so
	// -topr needs SetupVocabulary even in CN mode.
	if qmode == core.ModeCV || *topR > 0 {
		if _, err := pool.SetupVocabulary(); err != nil {
			return err
		}
		terms, bytes := fed.VocabularySize()
		fmt.Fprintf(w, "merged vocabulary: %d terms (%d bytes)\n", terms, bytes)
	}
	if *topR > 0 {
		fmt.Fprintf(w, "collection selection on: top %d of %d librarians per query\n",
			*topR, len(fed.Librarians()))
	}
	if *fetch && *compressed {
		if _, err := pool.SetupModels(); err != nil {
			return err
		}
	}

	// Boolean queries take only the fault-policy options; the rest are
	// validated and ignored.
	opts := core.Options{
		Fetch:              *fetch,
		CompressedTransfer: *compressed,
		Timeout:            *timeout,
		Retries:            *retries,
		Backoff:            *backoff,
		AllowPartial:       *partial,
		MinLibrarians:      *minLibs,
		TopR:               *topR,
		HedgeAfter:         *hedge,
		Evaluator:          evaluator,
	}
	scanner := bufio.NewScanner(stdin)
	fmt.Fprint(w, "query> ")
	for scanner.Scan() {
		q := strings.TrimSpace(scanner.Text())
		if q == "" {
			fmt.Fprint(w, "query> ")
			continue
		}
		if *boolean {
			res, err := pool.Boolean(context.Background(), q, opts)
			if err != nil {
				fmt.Fprintf(w, "error: %v\n", err)
			} else {
				fmt.Fprintf(w, "%d documents match across %d librarians\n",
					len(res.Answers), res.Trace.LibrariansAsked)
				reportFaults(w, &res.Trace)
				show := res.Answers
				if len(show) > *k {
					show = show[:*k]
				}
				for _, a := range show {
					fmt.Fprintf(w, "  %s\n", a.Key())
				}
			}
			fmt.Fprint(w, "query> ")
			continue
		}
		res, err := pool.Query(qmode, q, *k, opts)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
			fmt.Fprint(w, "query> ")
			continue
		}
		if res.Trace.CacheHit {
			fmt.Fprintf(w, "%d answers (cached; no librarian round trips)\n", len(res.Answers))
		} else if res.Trace.LibrariansSelected > 0 {
			fmt.Fprintf(w, "%d answers from the %d selected librarians (%d candidates merged, %d bytes moved)\n",
				len(res.Answers), res.Trace.LibrariansSelected,
				res.Trace.MergeCandidates, res.Trace.BytesTransferred(0))
		} else {
			fmt.Fprintf(w, "%d answers from %d librarians (%d candidates merged, %d bytes moved)\n",
				len(res.Answers), res.Trace.LibrariansAsked,
				res.Trace.MergeCandidates, res.Trace.BytesTransferred(0))
		}
		reportFaults(w, &res.Trace)
		for i, a := range res.Answers {
			fmt.Fprintf(w, "%3d. %-24s %.4f", i+1, a.Key(), a.Score)
			if a.Title != "" {
				fmt.Fprintf(w, "  %s", a.Title)
			}
			fmt.Fprintln(w)
			if *fetch {
				fmt.Fprintf(w, "     %s\n", firstLine(a.Text))
			}
		}
		fmt.Fprint(w, "query> ")
	}
	return scanner.Err()
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
