package core

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/simnet"
)

// promValues renders reg and parses every sample line into a map keyed by
// the full sample name ("metric{labels}" or bare "metric").
func promValues(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsMatchTraces is the e2e accounting check: run a known query
// batch under CN, CV and CI, sum the per-query Trace values, and assert the
// pool's /metrics totals agree exactly.
func TestMetricsMatchTraces(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	if _, err := f.recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	g, err := BuildGrouped(f.termsOf, 5, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.recep.Federation().SetupCentralIndex(g); err != nil {
		t.Fatal(err)
	}

	queries := []string{"alpha federal wallstreet", "w5 w6 w7", "finance widget aurora w1"}
	perMode := map[Mode]int{}
	var centralPostings, retries, failures uint64
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		for _, q := range queries {
			res, err := f.recep.Query(mode, q, 10, Options{})
			if err != nil {
				t.Fatalf("%v %q: %v", mode, q, err)
			}
			perMode[mode]++
			centralPostings += res.Trace.CentralStats.PostingsDecoded
			retries += uint64(res.Trace.RetryAttempts())
			failures += uint64(len(res.Trace.Failures))
		}
	}

	vals := promValues(t, f.reg)
	for mode, want := range perMode {
		key := `teraphim_queries_total{mode="` + mode.String() + `"}`
		if got := vals[key]; got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
		key = `teraphim_query_seconds_count{mode="` + mode.String() + `"}`
		if got := vals[key]; got != float64(want) {
			t.Errorf("%s = %v, want %d", key, got, want)
		}
		for _, name := range []string{"teraphim_query_errors_total", "teraphim_queries_degraded_total"} {
			key = name + `{mode="` + mode.String() + `"}`
			if got := vals[key]; got != 0 {
				t.Errorf("%s = %v, want 0", key, got)
			}
		}
	}
	total := float64(len(queries) * 3)
	for _, stage := range []string{"analyze", "ship", "wait", "merge"} {
		key := `teraphim_query_stage_seconds_count{stage="` + stage + `"}`
		if got := vals[key]; got != total {
			t.Errorf("%s = %v, want %v", key, got, total)
		}
	}
	if got := vals[`teraphim_search_postings_decoded_total{component="central"}`]; got != float64(centralPostings) {
		t.Errorf("central postings decoded = %v, traces say %d", got, centralPostings)
	}
	if centralPostings == 0 {
		t.Error("CI queries decoded no central postings; accounting test is vacuous")
	}
	if retries != 0 || failures != 0 {
		t.Fatalf("unexpected retries/failures on healthy fixture: %d/%d", retries, failures)
	}
	// Every lease was released: nothing in use, and the connections the
	// batch used are parked idle for reuse.
	if got := vals["teraphim_pool_conns_in_use"]; got != 0 {
		t.Errorf("conns_in_use = %v after batch, want 0", got)
	}
	if got := vals["teraphim_pool_conns_idle"]; got < 1 {
		t.Errorf("conns_idle = %v after batch, want >= 1", got)
	}
	if got := vals["teraphim_pool_dirty_discards_total"]; got != 0 {
		t.Errorf("dirty_discards = %v on healthy fixture, want 0", got)
	}
}

// TestLibrarianMetricsMatchTraces shares one registry between the pool and
// instrumented librarians and checks that the librarian-side evaluation
// counters equal the work the query traces report. The first librarian
// ingested half its documents, so its request, ingest and segment
// instruments must all move on that registry.
func TestLibrarianMetricsMatchTraces(t *testing.T) {
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	reg := obs.NewRegistry()
	var libs []*librarian.Librarian
	for i, name := range order {
		docs := corpus[name]
		built := len(docs)
		if i == 0 {
			built /= 2 // the rest arrives by Ingest (a no-op for the others)
		}
		lib, err := librarian.Build(name, docs[:built], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		defer lib.Close()
		lib.Instrument(reg)
		if err := lib.Ingest(context.Background(), docs[built:]); err != nil {
			t.Fatal(err)
		}
		if err := lib.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
	recep, err := NewPool(dialer, order, Config{Analyzer: a, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recep.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}

	var libPostings, libScored uint64
	var wireBytes float64
	for _, q := range []string{"alpha w2 w3", "federal wallstreet", "w20 w21 w22"} {
		res, err := recep.Query(ModeCV, q, 10, Options{})
		if err != nil {
			t.Fatal(err)
		}
		work := res.Trace.LibrarianWork()
		libPostings += work.PostingsDecoded
		libScored += uint64(work.CandidateDocs)
		wireBytes += float64(res.Trace.BytesTransferred(0))
	}
	recep.Close()
	dialer.Wait()

	vals := promValues(t, reg)
	var gotPostings, gotScored, gotBytes, gotSessions float64
	for _, name := range order {
		gotPostings += vals[`teraphim_search_postings_decoded_total{librarian="`+name+`"}`]
		gotScored += vals[`teraphim_search_candidates_scored_total{librarian="`+name+`"}`]
		gotBytes += vals[`teraphim_librarian_bytes_in_total{librarian="`+name+`"}`]
		gotBytes += vals[`teraphim_librarian_bytes_out_total{librarian="`+name+`"}`]
		gotSessions += vals[`teraphim_librarian_active_sessions{librarian="`+name+`"}`]
		if vals[`teraphim_librarian_requests_total{librarian="`+name+`"}`] < 1 {
			t.Errorf("librarian %q answered no requests", name)
		}
	}
	if gotPostings != float64(libPostings) {
		t.Errorf("librarian postings decoded = %v, traces say %d", gotPostings, libPostings)
	}
	if gotScored != float64(libScored) {
		t.Errorf("librarian candidates scored = %v, traces say %d", gotScored, libScored)
	}
	if libPostings == 0 {
		t.Error("queries decoded no postings; accounting test is vacuous")
	}
	// The librarians also served the Hello and vocabulary exchanges, so the
	// wire totals must cover at least the query traffic.
	if gotBytes < wireBytes {
		t.Errorf("librarian wire bytes = %v, query traces alone moved %v", gotBytes, wireBytes)
	}
	if gotSessions != 0 {
		t.Errorf("active_sessions = %v after Close+Wait, want 0", gotSessions)
	}
	grown := `{librarian="` + order[0] + `"}`
	segs, batches := vals["teraphim_segment_live"+grown], vals["teraphim_ingest_batches_total"+grown]
	timed, reqs := vals["teraphim_librarian_request_seconds_count"+grown], vals["teraphim_librarian_requests_total"+grown]
	if segs != 2 || batches != 1 || timed != reqs {
		t.Errorf("ingesting librarian %s: %v segments live, %v batches, %v of %v requests timed", order[0], segs, batches, timed, reqs)
	}
}

// slowFixture is a deployment whose links add real propagation delay, so a
// query that is not cancelled takes hundreds of milliseconds.
func slowFixture(t *testing.T, latency time.Duration, cfg Config) *Pool {
	t.Helper()
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	var libs []*librarian.Librarian
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{Latency: latency})
	cfg.Analyzer = a
	recep, err := NewPool(dialer, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		recep.Close()
		dialer.Wait()
	})
	return recep
}

// TestQueryContextCancelsMidFlight cancels a query while its exchanges are
// blocked on slow links and checks it returns promptly with
// context.Canceled, without leaking pooled connections: the cancelled
// exchange's tag is abandoned and the connection kept (no dirty discards),
// on the default pool and on the paper's two-round protocol ("legacy")
// alike.
func TestQueryContextCancelsMidFlight(t *testing.T) {
	const latency = 250 * time.Millisecond
	for _, tc := range []struct {
		name string
		cfg  Config
		// minDirty/maxDirty bound teraphim_pool_dirty_discards_total after
		// the cancelled query.
		minDirty, maxDirty float64
	}{
		{"pipelined", Config{}, 0, 0},
		{"legacy", Config{TwoRoundFetch: true}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc.cfg.Metrics = reg
			recep := slowFixture(t, latency, tc.cfg)

			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(30*time.Millisecond, cancel)
			defer timer.Stop()
			start := time.Now()
			_, err := recep.QueryContext(ctx, ModeCN, "alpha federal", 5, Options{})
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("cancelled query: want error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled query: err = %v, want context.Canceled", err)
			}
			// An uncancelled CN query pays at least two one-way latencies
			// (500ms here); prompt cancellation must return far sooner.
			if elapsed >= latency {
				t.Errorf("cancelled query returned after %v, want < %v", elapsed, latency)
			}

			// The interrupted exchanges were abandoned, not leaked: the pool
			// still has every slot, and a fresh query succeeds.
			vals := promValues(t, reg)
			if got := vals["teraphim_pool_conns_in_use"]; got != 0 {
				t.Errorf("conns_in_use = %v after cancelled query, want 0", got)
			}
			if got := vals["teraphim_pool_dirty_discards_total"]; got < tc.minDirty || got > tc.maxDirty {
				t.Errorf("dirty_discards = %v, want in [%v, %v]", got, tc.minDirty, tc.maxDirty)
			}
			res, err := recep.Query(ModeCN, "alpha federal", 5, Options{})
			if err != nil {
				t.Fatalf("query after cancellation: %v", err)
			}
			if len(res.Answers) == 0 {
				t.Fatal("query after cancellation returned no answers")
			}
		})
	}
}

// TestQueryContextPreCancelled checks an already-cancelled context fails
// immediately, before any librarian work.
func TestQueryContextPreCancelled(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.recep.QueryContext(ctx, ModeCN, "alpha", 5, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query: err = %v, want context.Canceled", err)
	}
}

// TestQueryContextCancelsBackoffWait cancels while the only retry schedule
// is sleeping in its backoff, proving the wait itself observes the context.
func TestQueryContextCancelsBackoffWait(t *testing.T) {
	// A dialer with no reachable librarians forces every attempt to fail,
	// sending the exchange loop into backoff between attempts.
	dialer := simnet.TCPDialer{"AP": "127.0.0.1:1"} // nothing listens here
	start := time.Now()
	_, err := NewPool(dialer, []string{"AP"}, Config{})
	if err == nil {
		t.Skip("unexpectedly dialled; environment has a listener on port 1")
	}
	_ = start
	// Now exercise the ctx-aware backoff path directly.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	waited := time.Now()
	if sleepCtx(ctx, 3*time.Second) {
		t.Fatal("sleepCtx survived cancellation")
	}
	if d := time.Since(waited); d >= 500*time.Millisecond {
		t.Fatalf("sleepCtx returned after %v, want prompt cancellation", d)
	}
}

// TestSlowQueryLog: above the threshold every query writes exactly one
// key=value line naming its mode, its fan-out and the quoted query text; a
// zero threshold writes nothing.
func TestSlowQueryLog(t *testing.T) {
	corpus, order := smallCorpus(t)
	for _, threshold := range []time.Duration{time.Nanosecond, 0} {
		f := newReplicaFixture(t, corpus, order, 1, Config{SlowQueryThreshold: threshold})
		var buf strings.Builder
		f.pool.slowLog = &buf
		queries := []string{"alpha federal", `wallstreet "widget"`}
		for _, q := range queries {
			if _, err := f.pool.Query(ModeCN, q, 5, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		if threshold == 0 {
			if buf.Len() != 0 {
				t.Fatalf("threshold 0 wrote %q", buf.String())
			}
			continue
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(lines) != len(queries) {
			t.Fatalf("%d queries over the threshold wrote %d lines: %q", len(queries), len(lines), buf.String())
		}
		for i, line := range lines {
			for _, want := range []string{"mode=CN ", "libs=3 ", "query=" + strconv.Quote(queries[i])} {
				if !strings.Contains(line, want) {
					t.Errorf("slow-query line %q lacks %q", line, want)
				}
			}
		}
	}
}
