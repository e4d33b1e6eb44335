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

// transportFixture is a fleet with nreplicas endpoints "<name>#<i>" per
// librarian behind a Chaos wrapper (to slow endpoints) and a countingDialer
// (to watch the wire from outside the pool).
type transportFixture struct {
	pool    *Pool
	order   []string
	chaos   *simnet.Chaos
	counter *countingDialer
}

func newTransportFixture(t *testing.T, nreplicas, maxConns int, cfg Config) *transportFixture {
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
		for i := 0; i < nreplicas; i++ {
			ep := fmt.Sprintf("%s#%d", name, i)
			dialer.AddEndpoint(ep, lib, simnet.LinkConfig{})
			replicas[name] = append(replicas[name], ep)
		}
	}
	chaos := simnet.NewChaos(dialer)
	counter := newCountingDialer(chaos)
	cfg.Analyzer, cfg.Replicas, cfg.MaxConnsPerLibrarian = a, replicas, maxConns
	pool, err := NewPool(counter, order, cfg)
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

// TestTransportConformance is the wall around the one transport: the pool
// must give the oracle's answers in every mode, batched or not, pipelined or
// two-round, fetching or not, and keep its promises about connections.
// Everything is observed from outside the pool — answers, the dialer's view
// of the wire, the public gauges. The promises sit under "pipelined", the
// one framing every connection speaks.
func TestTransportConformance(t *testing.T) {
	t.Run("answers", func(t *testing.T) {
		runSlice(t, 1, crossTrials(map[int][]int{axMode: allModes, axFetch: {0, 1, 2}, axBatch: {0, 1}, axTwoRound: {0, 1}}))
	})

	t.Run("pipelined", func(t *testing.T) {
		t.Run("reuse and framing", testTransportReuse)
		t.Run("connection bound", testTransportBound)
		t.Run("timeout", testTransportTimeout)
		t.Run("cancel", testTransportCancel)
		t.Run("lease errors", testTransportLeaseErrors)
	})
}

// A long sequential run never redials — the connection setup opened serves
// every exchange — and every connection opens with one untagged Hello and
// tags everything after it.
func testTransportReuse(t *testing.T) {
	f := newTransportFixture(t, 1, 4, Config{})
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
		if c.untaggedFrames[ep] != 1 || c.taggedFrames[ep] == 0 {
			t.Errorf("%s got %d untagged and %d tagged frames, want the Hello alone untagged",
				ep, c.untaggedFrames[ep], c.taggedFrames[ep])
		}
	}
}

// MaxConnsPerLibrarian bounds the open connections per endpoint under a query
// storm, and every query completes.
func testTransportBound(t *testing.T) {
	const maxConns = 2
	f := newTransportFixture(t, 2, maxConns, Config{})
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
		if dials > maxConns {
			t.Errorf("%s dialled %d times with nothing failing, bound is %d", ep, dials, maxConns)
		}
	}
	if len(c.dials) != 2*len(f.order) {
		t.Errorf("storm reached %d endpoints, want both replicas of every librarian", len(c.dials))
	}
	assertNoLeakedConns(t, f.pool)
}

// A per-call timeout closes the connection, the retry redials, and the
// discard is counted once.
func testTransportTimeout(t *testing.T) {
	f := newTransportFixture(t, 1, 2, Config{})
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

// A plain cancellation after the request was written abandons the tag; the
// connection stays, uncounted as dirty, and serves the next query.
func testTransportCancel(t *testing.T) {
	f := newTransportFixture(t, 1, 2, Config{})
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
		if _, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 10, Options{}); err != nil {
			t.Fatalf("%s: query after cancel: %v", ep, err)
		}
		if d, open, _ := f.counter.stats(ep); d != dials || open != 1 {
			t.Errorf("%s: %d dials and %d open connections after the next query, want %d and 1", ep, d, open, dials)
		}
		if got := f.pool.metrics.dirtyDiscards.Value() - dirty; got != 0 {
			t.Errorf("%s: dirty_discards rose by %d, want 0", ep, got)
		}
	}
}

// What a lease refuses: a librarian the pool does not know, and anything
// after Close.
func testTransportLeaseErrors(t *testing.T) {
	f := newTransportFixture(t, 2, 2, Config{})
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
	for _, lib := range f.order {
		for i := 0; i < 2; i++ {
			ep := fmt.Sprintf("%s#%d", lib, i)
			if _, open, _ := f.counter.stats(ep); open != 0 {
				t.Errorf("%s: %d connections open after Close", ep, open)
			}
		}
	}
}
