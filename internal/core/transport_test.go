package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
)

// transportFleet is one column of the transport conformance table: what the
// pool requests and which librarians stand in for a pre-feature build. The
// pool must behave the same on all of them; only how many exchanges one
// connection carries may differ.
type transportFleet struct {
	name     string
	features protocol.Features
	old      string // the librarian that grants nothing, if any
}

var transportFleets = []transportFleet{
	{name: "pipelined"},
	{name: "seed", features: protocol.FeatureNone},
	{name: "mixed", old: "FR"},
}

// untagged reports whether the pool's connections to lib speak the seed
// framing.
func (fl transportFleet) untagged(lib string) bool {
	return fl.features == protocol.FeatureNone || lib == fl.old
}

// transportFixture is a fleet with nreplicas endpoints "<name>#<i>" per
// librarian behind a Chaos wrapper (to slow endpoints) and a countingDialer
// (to watch the wire from outside the pool).
type transportFixture struct {
	pool    *Pool
	order   []string
	chaos   *simnet.Chaos
	counter *countingDialer
}

func newTransportFixture(t *testing.T, fl transportFleet, nreplicas, maxConns int) *transportFixture {
	t.Helper()
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	dialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	replicas := make(map[string][]string, len(order))
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		if name == fl.old {
			lib.SupportFeatures(protocol.FeatureNone)
		}
		for i := 0; i < nreplicas; i++ {
			ep := fmt.Sprintf("%s#%d", name, i)
			dialer.AddEndpoint(ep, lib, simnet.LinkConfig{})
			replicas[name] = append(replicas[name], ep)
		}
	}
	chaos := simnet.NewChaos(dialer)
	counter := newCountingDialer(chaos)
	pool, err := NewPool(counter, order, Config{
		Analyzer: a, Replicas: replicas, MaxConnsPerLibrarian: maxConns, WireFeatures: fl.features,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pool.Close()
		dialer.Wait()
	})
	if _, err := pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.SetupCentralIndexRemote(10); err != nil {
		t.Fatal(err)
	}
	return &transportFixture{pool: pool, order: order, chaos: chaos, counter: counter}
}

// waitInUse polls the in-use gauge until exactly n connections carry an
// exchange.
func (f *transportFixture) waitInUse(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for f.pool.metrics.connsInUse.Value() != n {
		if time.Now().After(deadline) {
			t.Fatalf("conns_in_use = %d, waiting for %d", f.pool.metrics.connsInUse.Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

var transportModes = []struct {
	mode Mode
	opts Options
}{
	{ModeCN, Options{}},
	{ModeCV, Options{}},
	{ModeCI, Options{KPrime: 2}},
}

var transportQueries = []string{"alpha federal wallstreet", "federal fiscal", "widget", "alpha w1 w2 w3"}

// TestTransportConformance is the wall around the one transport: every fleet
// in transportFleets must give the same answers in every mode and keep the
// same promises about connections, whatever framing its connections ended up
// with. Everything is observed from outside the pool — answers, the dialer's
// view of the wire, the public gauges.
func TestTransportConformance(t *testing.T) {
	t.Run("answers", func(t *testing.T) {
		// == across the three fleets, mode by mode. A batch window must change
		// nothing, and a librarian that granted no batching is never batched.
		var want map[string][]Answer
		for _, fl := range transportFleets {
			f := newTransportFixture(t, fl, 1, 2)
			got := make(map[string][]Answer)
			for _, tc := range transportModes {
				for _, q := range transportQueries {
					for _, window := range []time.Duration{0, 2 * time.Millisecond} {
						opts := tc.opts
						opts.BatchWindow = window
						res, err := f.pool.Query(tc.mode, q, 10, opts)
						if err != nil {
							t.Fatalf("%s %v %q: %v", fl.name, tc.mode, q, err)
						}
						key := fmt.Sprintf("%v %q", tc.mode, q)
						if prev, ok := got[key]; ok && !answersEqual(prev, res.Answers) {
							t.Fatalf("%s %s: batch window %v changed the answers", fl.name, key, window)
						}
						got[key] = res.Answers
						for _, c := range res.Trace.Calls {
							if fl.untagged(c.Librarian) && c.BatchSize != 0 {
								t.Fatalf("%s %s: batched call to %s, which granted no batching: %+v", fl.name, key, c.Librarian, c)
							}
						}
					}
				}
			}
			if want == nil {
				want = got
				continue
			}
			for key, answers := range want {
				if !answersEqual(answers, got[key]) {
					t.Fatalf("%s %s diverged from %s\nwant %+v\ngot  %+v", fl.name, key, transportFleets[0].name, answers, got[key])
				}
			}
		}
	})

	for _, fl := range transportFleets {
		fl := fl
		t.Run(fl.name, func(t *testing.T) {
			t.Run("reuse and framing", func(t *testing.T) { testTransportReuse(t, fl) })
			t.Run("connection bound", func(t *testing.T) { testTransportBound(t, fl) })
			t.Run("timeout", func(t *testing.T) { testTransportTimeout(t, fl) })
			t.Run("cancel", func(t *testing.T) { testTransportCancel(t, fl) })
			t.Run("remove replica", func(t *testing.T) { testTransportDrain(t, fl) })
			t.Run("lease errors", func(t *testing.T) { testTransportLeaseErrors(t, fl) })
		})
	}
}

// A long sequential run never redials — the connection setup opened serves
// every exchange — and the frames on it are what the fleet negotiated: a pool
// pinned to the seed protocol writes no tagged frame and no Hello beyond
// NewPool's own; a negotiating pool opens every connection with one untagged
// Hello and tags everything after it exactly where the peer granted that.
func testTransportReuse(t *testing.T, fl transportFleet) {
	f := newTransportFixture(t, fl, 1, 4)
	for i := 0; i < 25; i++ {
		for _, tc := range transportModes {
			if _, err := f.pool.Query(tc.mode, "alpha federal", 5, tc.opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := f.counter
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, lib := range f.order {
		ep := lib + "#0"
		if c.dials[ep] != 1 {
			t.Errorf("%s dialled %d times across sequential queries, want 1", ep, c.dials[ep])
		}
		if c.hellos[ep] != 1 {
			t.Errorf("%s was sent %d Hellos on one connection, want 1", ep, c.hellos[ep])
		}
		switch {
		case fl.untagged(lib) && c.taggedFrames[ep] != 0:
			t.Errorf("%s got %d tagged frames on seed framing", ep, c.taggedFrames[ep])
		case !fl.untagged(lib) && (c.untaggedFrames[ep] != 1 || c.taggedFrames[ep] == 0):
			t.Errorf("%s got %d untagged and %d tagged frames, want the Hello alone untagged",
				ep, c.untaggedFrames[ep], c.taggedFrames[ep])
		}
	}
}

// MaxConnsPerLibrarian bounds the open connections per endpoint under a query
// storm, every query completes, and an untagged connection never carries two
// exchanges at once — not even on a replica whose framing the pool learns
// mid-storm, from the first dial to it, with wide leases already out.
func testTransportBound(t *testing.T, fl transportFleet) {
	const maxConns = 2
	f := newTransportFixture(t, fl, 2, maxConns)
	const goroutines = 12
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tc := transportModes[g%len(transportModes)]
			for i := 0; i < 6; i++ {
				if _, err := f.pool.Query(tc.mode, "alpha federal wallstreet", 10, tc.opts); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	c := f.counter
	c.mu.Lock()
	defer c.mu.Unlock()
	for ep, dials := range c.dials {
		if c.maxOpen[ep] > maxConns {
			t.Errorf("%s had %d connections open at once, bound is %d", ep, c.maxOpen[ep], maxConns)
		}
		if c.overlaps[ep] != 0 {
			t.Errorf("%s: %d untagged requests written before the previous reply", ep, c.overlaps[ep])
		}
		if dials > maxConns {
			t.Errorf("%s dialled %d times with nothing failing, bound is %d", ep, dials, maxConns)
		}
	}
	if len(c.dials) != 2*len(f.order) {
		t.Errorf("storm reached %d endpoints, want both replicas of every librarian", len(c.dials))
	}
	assertNoLeakedConns(t, f.pool)
}

// A per-call timeout closes the connection whatever its framing, the retry
// redials, and the discard is counted once.
func testTransportTimeout(t *testing.T, fl transportFleet) {
	f := newTransportFixture(t, fl, 1, 2)
	for _, lib := range f.order {
		ep := lib + "#0"
		dials, _, _ := f.counter.stats(ep)
		dirty := f.pool.metrics.dirtyDiscards.Value()
		f.counter.dropNext(ep)
		res, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 10, Options{Timeout: 150 * time.Millisecond, Retries: 1})
		if err != nil {
			t.Fatalf("%s: retry after timeout: %v", ep, err)
		}
		if n := res.Trace.RetryAttempts(); n != 1 {
			t.Errorf("%s: %d retried exchanges, want 1", ep, n)
		}
		if d, open, _ := f.counter.stats(ep); d != dials+1 || open != 1 {
			t.Errorf("%s: %d dials and %d open connections after the retry, want %d and 1", ep, d, open, dials+1)
		}
		if got := f.pool.metrics.dirtyDiscards.Value() - dirty; got != 1 {
			t.Errorf("%s: dirty_discards rose by %d, want 1", ep, got)
		}
	}
	assertNoLeakedConns(t, f.pool)
}

// A plain cancellation after the request was written: an untagged stream
// cannot discard the late reply, so the connection goes, counted as dirty; a
// tagged connection abandons the tag, stays, and serves the next query.
func testTransportCancel(t *testing.T, fl transportFleet) {
	f := newTransportFixture(t, fl, 1, 2)
	for _, lib := range f.order {
		ep := lib + "#0"
		dials, _, _ := f.counter.stats(ep)
		dirty := f.pool.metrics.dirtyDiscards.Value()
		dropped := f.counter.dropNext(ep)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := f.pool.QueryContext(ctx, ModeCN, "alpha federal wallstreet", 10, Options{})
			done <- err
		}()
		<-dropped
		f.waitInUse(t, 1) // the other librarians have answered
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled query: %v", ep, err)
		}
		assertNoLeakedConns(t, f.pool)
		wantDials, wantDirty := dials, uint64(0)
		if fl.untagged(lib) {
			if _, open, _ := f.counter.stats(ep); open != 0 {
				t.Errorf("%s: untagged connection still open after a mid-exchange cancel", ep)
			}
			wantDials, wantDirty = dials+1, 1
		}
		if _, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 10, Options{}); err != nil {
			t.Fatalf("%s: query after cancel: %v", ep, err)
		}
		if d, open, _ := f.counter.stats(ep); d != wantDials || open != 1 {
			t.Errorf("%s: %d dials and %d open connections after the next query, want %d and 1", ep, d, open, wantDials)
		}
		if got := f.pool.metrics.dirtyDiscards.Value() - dirty; got != wantDirty {
			t.Errorf("%s: dirty_discards rose by %d, want %d", ep, got, wantDirty)
		}
	}
}

// RemoveReplica while an exchange is in flight on the removed endpoint: the
// exchange completes and counts, the endpoint's connections all close, and
// nothing is sent there again.
func testTransportDrain(t *testing.T, fl transportFleet) {
	f := newTransportFixture(t, fl, 2, 2)
	const q = "alpha federal wallstreet"
	want, err := f.pool.Query(ModeCN, q, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, lib := range f.order {
		// Slow writes hold the next exchange in flight long enough to pull
		// its replica out from under it.
		for i := 0; i < 2; i++ {
			f.chaos.SetDelay(fmt.Sprintf("%s#%d", lib, i), 100*time.Millisecond)
		}
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := f.pool.Query(ModeCN, q, 10, Options{})
			done <- outcome{res, err}
		}()
		var victim string
		for deadline := time.Now().Add(5 * time.Second); victim == ""; {
			status, err := f.pool.Replicas(lib)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range status {
				if st.InFlight > 0 {
					victim = st.Endpoint
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: no exchange ever in flight", lib)
			}
		}
		if err := f.pool.RemoveReplica(lib, victim); err != nil {
			t.Fatalf("RemoveReplica(%s, %s): %v", lib, victim, err)
		}
		out := <-done
		if out.err != nil {
			t.Fatalf("%s: query in flight across RemoveReplica(%s): %v", lib, victim, out.err)
		}
		if !answersEqual(want.Answers, out.res.Answers) || out.res.Trace.RetryAttempts() != 0 {
			t.Fatalf("%s: query in flight across RemoveReplica(%s) did not finish on the replica it held", lib, victim)
		}
		for i := 0; i < 2; i++ {
			f.chaos.SetDelay(fmt.Sprintf("%s#%d", lib, i), 0)
		}
		dials, _, _ := f.counter.stats(victim)
		for i := 0; i < 5; i++ {
			if _, err := f.pool.Query(ModeCN, q, 10, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		// The held exchange's completion is signalled before its drained
		// connection is closed, so the close may still be on its way.
		deadline := time.Now().Add(5 * time.Second)
		for _, open, _ := f.counter.stats(victim); open != 0 && time.Now().Before(deadline); _, open, _ = f.counter.stats(victim) {
			time.Sleep(100 * time.Microsecond)
		}
		if d, open, _ := f.counter.stats(victim); d != dials || open != 0 {
			t.Errorf("%s: removed endpoint has %d open connections and was dialled %d more times", victim, open, d-dials)
		}
	}
	assertNoLeakedConns(t, f.pool)
}

// What a lease refuses: a librarian the pool does not know, and anything
// after Close.
func testTransportLeaseErrors(t *testing.T, fl transportFleet) {
	f := newTransportFixture(t, fl, 2, 2)
	e := &exec{ctx: context.Background(), fed: f.pool.fed, pool: f.pool}
	attempt := func(name string) error {
		_, _, _, err := e.attempt(e.ctx, name, PhaseSetup, &protocol.VocabRequest{}, "", false, nil)
		return err
	}
	if err := attempt("nope"); err == nil || errors.Is(err, ErrPoolClosed) {
		t.Fatalf("exchange with an unknown librarian: %v", err)
	}
	if err := attempt("AP"); err != nil {
		t.Fatal(err)
	}
	if err := f.pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := attempt("AP"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("exchange after Close: got %v, want ErrPoolClosed", err)
	}
	if _, err := f.pool.Query(ModeCN, "alpha", 5, Options{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("query after Close: got %v, want ErrPoolClosed", err)
	}
	if err := f.pool.RemoveReplica("AP", "AP#1"); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("RemoveReplica after Close: got %v, want ErrPoolClosed", err)
	}
	for _, lib := range f.order {
		for i := 0; i < 2; i++ {
			ep := fmt.Sprintf("%s#%d", lib, i)
			if _, open, _ := f.counter.stats(ep); open != 0 {
				t.Errorf("%s: %d connections open after Close", ep, open)
			}
		}
	}
}
