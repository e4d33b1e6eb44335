package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// The one-exchange wall: with Options.Fetch on, documents ride the rank
// replies and fetchAnswers only fills the gaps. The tests read the saving off
// Trace.PiggybackedDocs / Trace.FallbackFetches and hold answers to the
// oracle.

// staticDialer builds one frozen librarian per subcollection.
func staticDialer(t testing.TB, corpus map[string][]store.Document, order []string) *librarian.InProcessDialer {
	t.Helper()
	var libs []*librarian.Librarian
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: testAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	return librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
}

// connectAll connects a pool to an already-built fleet and runs every setup
// exchange, so CN, CV, CI and compressed transfer all work on it.
func connectAll(t testing.TB, dialer simnet.Dialer, order []string, cfg Config) *Pool {
	t.Helper()
	cfg.Analyzer = testAnalyzer()
	pool, err := NewPool(dialer, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	setupAll(t, pool)
	return pool
}

func setupAll(t testing.TB, pool *Pool) {
	t.Helper()
	if _, err := pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.SetupModels(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.SetupCentralIndexRemote(5); err != nil {
		t.Fatal(err)
	}
}

// answerLibrarians counts the distinct librarians owning the answers.
func answerLibrarians(answers []Answer) int {
	seen := make(map[string]bool)
	for _, a := range answers {
		seen[a.Librarian] = true
	}
	return len(seen)
}

func TestRankFetchParity(t *testing.T) {
	corpus, order := smallCorpus(t)
	const k = 10
	type fetchCase struct {
		mode  Mode
		query string
		opts  Options
	}
	var cases []fetchCase
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		for _, q := range []string{"alpha federal wallstreet", "fiscal widget w1 w2", "avalanche aurora w100"} {
			for _, compressed := range []bool{false, true} {
				cases = append(cases, fetchCase{mode, q, Options{Fetch: true, CompressedTransfer: compressed, KPrime: 8}})
			}
		}
	}
	fed := newOracleFederation(t, corpus, order, 5) // setupAll's G
	for _, backend := range []string{"static", "segmented"} {
		t.Run(backend, func(t *testing.T) {
			var dialer *librarian.InProcessDialer
			if backend == "static" {
				dialer = staticDialer(t, corpus, order)
			} else {
				dialer, _ = newSegmentedDialer(t, corpus, order, 3)
			}
			t.Cleanup(dialer.Wait) // after every pool on it has closed
			// checkOne holds a one-exchange result against the oracle.
			checkOne := func(t *testing.T, wire string, i int, res *Result) {
				c := cases[i]
				label := wire + " " + c.mode.String() + " " + c.query
				want, ambiguous := fed.want(c.mode, c.opts.KPrime, c.query)
				if ambiguous {
					t.Fatalf("%s: the CI group cut is too close for the oracle to call", label)
				}
				if msg := fed.check(res.Answers, want, k); msg != "" {
					t.Fatalf("%s: %s", label, msg)
				}
				if msg := fed.fetched(res.Answers, true); msg != "" {
					t.Fatalf("%s: %s", label, msg)
				}
				tr := &res.Trace
				if tr.PiggybackedDocs != len(res.Answers) || tr.FallbackFetches != 0 || tr.RoundTrips(PhaseFetch) != 0 {
					t.Fatalf("%s: %d of %d answers piggy-backed, %d fallback fetches, %d fetch round trips",
						label, tr.PiggybackedDocs, len(res.Answers), tr.FallbackFetches, tr.RoundTrips(PhaseFetch))
				}
				if tr.RoundTrips(0) != tr.LibrariansAsked {
					t.Fatalf("%s: %d exchanges for %d librarians asked", label, tr.RoundTrips(0), tr.LibrariansAsked)
				}
				docs := 0
				for _, call := range tr.Calls {
					docs += call.DocsFetched
					if call.DocsFetched > 0 && call.DocBytes == 0 {
						t.Fatalf("%s: call to %s carried %d documents and 0 document bytes", label, call.Librarian, call.DocsFetched)
					}
				}
				if docs < len(res.Answers) {
					t.Fatalf("%s: rank calls account for %d documents, %d answers were filled", label, docs, len(res.Answers))
				}
				if c.mode == ModeCI && tr.MergeCandidates > tr.LibrariansAsked*k {
					t.Fatalf("%s: merged %d candidates from %d librarians asked for their top %d",
						label, tr.MergeCandidates, tr.LibrariansAsked, k)
				}
			}

			pool := connectAll(t, dialer, order, Config{})
			for i, c := range cases {
				res, err := pool.Query(c.mode, c.query, k, c.opts)
				if err != nil {
					t.Fatalf("pipelined %v %q: %v", c.mode, c.query, err)
				}
				checkOne(t, "pipelined", i, res)
			}
			assertNoLeakedConns(t, pool)

			// Batched: every case at once behind a start barrier, so rank
			// requests with FetchTop (RankQuery and ScoreDocs alike) share
			// BatchQuery frames.
			results := make([]*Result, len(cases))
			errs := make([]error, len(cases))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i, c := range cases {
				wg.Add(1)
				go func(i int, c fetchCase) {
					defer wg.Done()
					<-start
					opts := c.opts
					opts.BatchWindow = 25 * time.Millisecond
					results[i], errs[i] = pool.Query(c.mode, c.query, k, opts)
				}(i, c)
			}
			close(start)
			wg.Wait()
			maxBatch := 0
			for i, c := range cases {
				if errs[i] != nil {
					t.Fatalf("batched %v %q: %v", c.mode, c.query, errs[i])
				}
				checkOne(t, "batched", i, results[i])
				for _, call := range results[i].Trace.Calls {
					maxBatch = max(maxBatch, call.BatchSize)
				}
			}
			if maxBatch < 2 {
				t.Fatalf("%d concurrent clients in a 25ms window never shared a frame", len(cases))
			}
			assertNoLeakedConns(t, pool)
		})
	}
}

// A document larger than the librarian's per-reply byte budget is left off
// the rank reply and delivered by the fallback — it alone, even as the best
// hit: the documents ranked below it still ride the reply.
func TestRankFetchOversizeDocumentUsesFallback(t *testing.T) {
	corpus, order := smallCorpus(t)
	huge := strings.TrimSpace(strings.Repeat("alpha ", 8000)) // 48 KB, cosine 1 for "alpha"
	corpus["AP"] = append([]store.Document(nil), corpus["AP"]...)
	corpus["AP"][3] = store.Document{ID: 3, Title: "AP-huge", Text: huge}
	r := buildRecep(t, corpus, order, Config{})
	res, err := r.Query(ModeCN, "alpha", 5, Options{Fetch: true})
	if err != nil {
		t.Fatal(err)
	}
	if top := res.Answers[0]; top.Librarian != "AP" || top.LocalDoc != 3 || top.Text != huge || top.Title != "AP-huge" {
		t.Fatalf("top answer %s with %d bytes of text, want AP:3 with %d", top.Key(), len(top.Text), len(huge))
	}
	for _, a := range res.Answers {
		if a.Text != corpus[a.Librarian][a.LocalDoc].Text {
			t.Fatalf("%s: fetched text differs from the indexed document", a.Key())
		}
	}
	tr := &res.Trace
	if tr.FallbackFetches != 1 || tr.PiggybackedDocs != len(res.Answers)-1 {
		t.Fatalf("%d fallback fetches, %d of %d answers piggy-backed; want one fallback for the oversize document alone",
			tr.FallbackFetches, tr.PiggybackedDocs, len(res.Answers))
	}
	for _, c := range tr.Calls {
		if c.Phase == PhaseFetch && (c.Librarian != "AP" || c.DocsFetched != 1) {
			t.Fatalf("fallback fetch of %d documents went to %s, want 1 from AP", c.DocsFetched, c.Librarian)
		}
		if c.Phase == PhaseRank && c.DocBytes > 32<<10 {
			t.Fatalf("rank reply from %s carried %d document bytes, over the budget", c.Librarian, c.DocBytes)
		}
	}
}

// wideCorpus builds n small librarians over one vocabulary. Topical terms
// are spread over all of them, and L00 holds the densest topical documents,
// so it owns more of a top k than an even share.
func wideCorpus(n int) (map[string][]store.Document, []string) {
	rng := rand.New(rand.NewSource(7))
	topical := []string{"alpha", "federal", "wallstreet"}
	corpus := map[string][]store.Document{}
	var order []string
	for l := 0; l < n; l++ {
		name := fmt.Sprintf("L%02d", l)
		order = append(order, name)
		for d := 0; d < 40; d++ {
			var words []string
			for i, length := 0, 30+rng.Intn(40); i < length; i++ {
				if d%4 == 0 && (rng.Intn(3) == 0 || l == 0 && d%8 == 0 && i%2 == 0) {
					words = append(words, topical[rng.Intn(len(topical))])
				} else {
					words = append(words, "w"+strconv.Itoa(rng.Intn(400)))
				}
			}
			corpus[name] = append(corpus[name], store.Document{
				ID: uint32(d), Title: name + "-" + strconv.Itoa(d), Text: strings.Join(words, " "),
			})
		}
	}
	return corpus, order
}

// A fleet wider than overFetch: each librarian attaches only its share,
// ceil(overFetch*k/asked) < k, so a librarian that owns more of the answer
// than its share — and only such a librarian — is sent one FetchDocs for
// the rest. The answers still hold the oracle's ranking.
func TestRankFetchWideFleet(t *testing.T) {
	corpus, order := wideCorpus(8)
	const k = 8
	wide := buildRecep(t, corpus, order, Config{})
	setupAll(t, wide)
	fed := newOracleFederation(t, corpus, order, 5) // setupAll's G
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		opts := Options{Fetch: true, CompressedTransfer: mode != ModeCN, KPrime: 40}
		got, err := wide.Query(mode, "alpha federal wallstreet", k, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, ambiguous := fed.want(mode, opts.KPrime, "alpha federal wallstreet")
		if msg := fed.check(got.Answers, want, k) + fed.fetched(got.Answers, true); ambiguous || msg != "" {
			t.Fatalf("%v: %s (CI cut too close to call: %v)", mode, msg, ambiguous)
		}
		tr := &got.Trace
		if tr.LibrariansAsked <= overFetch {
			t.Fatalf("%v: only %d librarians asked; the fleet must be wider than %d", mode, tr.LibrariansAsked, overFetch)
		}
		share := (overFetch*k + tr.LibrariansAsked - 1) / tr.LibrariansAsked
		owned := make(map[string]int)
		for _, a := range got.Answers {
			owned[a.Librarian]++
		}
		// A librarian's answers are its own best, so the first `share` of
		// them arrived with its rank reply.
		piggy, over := 0, make(map[string]int)
		for name, n := range owned {
			piggy += min(n, share)
			if n > share {
				over[name] = n - share
			}
		}
		if len(over) == 0 || len(owned) < 2 {
			t.Fatalf("%v: answers %v never exceed a share of %d; the corpus must skew", mode, owned, share)
		}
		if tr.PiggybackedDocs != piggy || tr.FallbackFetches != len(over) {
			t.Fatalf("%v: %d piggy-backed, %d fallback fetches; want %d and %d for answers %v at share %d",
				mode, tr.PiggybackedDocs, tr.FallbackFetches, piggy, len(over), owned, share)
		}
		speculative := 0
		for _, c := range tr.Calls {
			switch {
			case c.Phase == PhaseRank && c.DocsFetched > share:
				t.Fatalf("%v: %s attached %d documents, share is %d", mode, c.Librarian, c.DocsFetched, share)
			case c.Phase == PhaseRank:
				speculative += c.DocsFetched
			case c.Phase == PhaseFetch && c.DocsFetched != over[c.Librarian]:
				t.Fatalf("%v: fallback fetched %d documents from %s, want %d", mode, c.DocsFetched, c.Librarian, over[c.Librarian])
			}
		}
		if speculative > overFetch*k+tr.LibrariansAsked {
			t.Fatalf("%v: %d documents attached in total, bound is %d x %d + %d", mode, speculative, overFetch, k, tr.LibrariansAsked)
		}
	}
}

// BenchmarkWideFleetOverFetch measures what fetchTop's factor buys on
// fleets wider than it: p50 latency, wire bytes and fallback fetches per
// query over 4 ms / 1.25 MB/s links, for the two-round wire and for
// overFetch 1..k (k = every librarian attaches all k). Run by hand:
//
//	go test ./internal/core -run '^$' -bench WideFleetOverFetch -benchtime 200x
func BenchmarkWideFleetOverFetch(b *testing.B) {
	const k = 20
	queries := []string{"alpha federal wallstreet", "alpha w1 w2 w3", "federal w10 w20", "wallstreet alpha w7"}
	link := simnet.LinkConfig{Latency: 4 * time.Millisecond, Bandwidth: 1.25e6}
	defer func(old int) { overFetch = old }(overFetch)
	for _, width := range []int{8, 16} {
		corpus, order := wideCorpus(width)
		var libs []*librarian.Librarian
		for _, name := range order {
			lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: testAnalyzer()})
			if err != nil {
				b.Fatal(err)
			}
			libs = append(libs, lib)
		}
		dialer := librarian.NewInProcessDialer(libs, link)
		for _, factor := range []int{0, 1, 2, 4, 8, k} {
			name := fmt.Sprintf("librarians=%d/overFetch=%d", width, factor)
			cfg := Config{}
			if factor == 0 {
				name = fmt.Sprintf("librarians=%d/two-round", width)
				cfg.TwoRoundFetch = true
			} else {
				overFetch = factor
			}
			b.Run(name, func(b *testing.B) {
				pool := connectAll(b, dialer, order, cfg)
				opts := Options{Fetch: true, CompressedTransfer: true, KPrime: 100}
				var bytes, fallbacks, attached int
				lat := make([]time.Duration, 0, b.N)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					start := time.Now()
					res, err := pool.Query(ModeCI, queries[i%len(queries)], k, opts)
					if err != nil {
						b.Fatal(err)
					}
					lat = append(lat, time.Since(start))
					bytes += res.Trace.BytesTransferred(0)
					fallbacks += res.Trace.FallbackFetches
					for _, c := range res.Trace.Calls {
						if c.Phase == PhaseRank {
							attached += c.DocsFetched
						}
					}
				}
				b.StopTimer()
				slices.Sort(lat)
				b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1000, "p50_ms")
				b.ReportMetric(float64(bytes)/float64(b.N), "wire_B/query")
				b.ReportMetric(float64(attached)/float64(b.N), "attached/query")
				b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/query")
				pool.Close()
			})
		}
		dialer.Wait()
	}
}

// Retried and hedged rank exchanges are whole replies from one replica, so
// whichever attempt wins brings its documents with it.
func TestRankFetchSurvivesReplicaLossAndHedging(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 2, Config{})
	setupAll(t, f.pool)
	check := func(res *Result, err error) error {
		if err != nil {
			return err
		}
		if res.Trace.Degraded || len(res.Answers) == 0 {
			return errDegradedOrEmpty
		}
		for _, a := range res.Answers {
			if doc := corpus[a.Librarian][a.LocalDoc]; a.Text != doc.Text || a.Title != doc.Title {
				return errWrongText
			}
		}
		return nil
	}

	// Kill one replica of every librarian while eight clients are mid-rank.
	opts := Options{Fetch: true, CompressedTransfer: true, KPrime: 8, Retries: 2, Backoff: time.Millisecond}
	modes := []Mode{ModeCN, ModeCV, ModeCI}
	const workers, perWorker = 8, 24
	var done, retried atomic.Int64
	var kill sync.Once
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := f.pool.Query(modes[(w+i)%len(modes)], "alpha federal wallstreet", 10, opts)
				if err := check(res, err); err != nil {
					errc <- err
					return
				}
				retried.Add(int64(res.Trace.RetryAttempts()))
				if done.Add(1) == workers*perWorker/2 {
					kill.Do(func() {
						for _, name := range f.order {
							f.chaos.Kill(name + "#1")
						}
					})
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if retried.Load() == 0 {
		t.Fatal("killing a replica of every librarian mid-run forced no retry")
	}

	assertNoLeakedConns(t, f.pool)

	// Hedging, on a fresh fleet: warm the latency trackers, then shape
	// replica #0 of every librarian slow so hedges launch and win.
	f = newReplicaFixture(t, corpus, order, 2, Config{})
	setupAll(t, f.pool)
	hedged := Options{Fetch: true, KPrime: 8}
	for i := 0; i < 20; i++ {
		if err := check(f.pool.Query(modes[i%len(modes)], "alpha federal wallstreet", 10, hedged)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range f.order {
		f.chaos.SetDelay(name+"#0", 30*time.Millisecond)
	}
	hedged.HedgeAfter = 0.9
	won := 0
	for i := 0; i < 20; i++ {
		res, err := f.pool.Query(modes[i%len(modes)], "alpha federal wallstreet", 10, hedged)
		if err := check(res, err); err != nil {
			t.Fatal(err)
		}
		if res.Trace.PiggybackedDocs != len(res.Answers) || res.Trace.FallbackFetches != 0 {
			t.Fatalf("hedged query %d: %d of %d answers piggy-backed, %d fallback fetches",
				i, res.Trace.PiggybackedDocs, len(res.Answers), res.Trace.FallbackFetches)
		}
		won += res.Trace.HedgeWins
	}
	if won == 0 {
		t.Fatal("no hedge ever won against a 30ms-slower primary")
	}
	assertNoLeakedConns(t, f.pool)
}

var (
	errDegradedOrEmpty = errors.New("degraded or empty result with a live sibling replica")
	errWrongText       = errors.New("fetched text differs from the indexed document")
)
