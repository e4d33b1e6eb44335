package core

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
)

// sameRanking compares two rankings by identity and rank, with scores equal
// to 1e-9 (term weights travel in a map, so librarians sum per-term
// contributions in map-iteration order — the last ULP is not deterministic).
func sameRanking(got, want []Answer) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Key() != want[i].Key() || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// countingDialer wraps a dialer and records, per endpoint, what the pool put
// on the wire from the outside: how many dials happened, how many of the
// dialled connections are open right now and were ever open at once (the
// MaxConnsPerLibrarian bound), how many were closed, and which frames were
// written (tagged, untagged, Hello).
type countingDialer struct {
	inner simnet.Dialer

	mu      sync.Mutex
	dials   map[string]int
	open    map[string]int
	maxOpen map[string]int
	closed  map[string]int
	// Frames written, by kind.
	hellos, taggedFrames, untaggedFrames map[string]int
	// drop, when set for an endpoint, swallows the next frame written to it
	// (the librarian never sees it, so no reply comes) and is closed then.
	drop map[string]chan struct{}
}

func newCountingDialer(inner simnet.Dialer) *countingDialer {
	return &countingDialer{
		inner:          inner,
		dials:          make(map[string]int),
		open:           make(map[string]int),
		maxOpen:        make(map[string]int),
		closed:         make(map[string]int),
		hellos:         make(map[string]int),
		taggedFrames:   make(map[string]int),
		untaggedFrames: make(map[string]int),
		drop:           make(map[string]chan struct{}),
	}
}

func (d *countingDialer) Dial(name string) (net.Conn, error) {
	conn, err := d.inner.Dial(name)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials[name]++
	d.open[name]++
	if d.open[name] > d.maxOpen[name] {
		d.maxOpen[name] = d.open[name]
	}
	d.mu.Unlock()
	return &countedConn{Conn: conn, dialer: d, name: name}, nil
}

func (d *countingDialer) stats(name string) (dials, open, maxOpen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials[name], d.open[name], d.maxOpen[name]
}

// dropNext arranges for the next frame written to the endpoint to vanish; the
// returned channel is closed when it has.
func (d *countingDialer) dropNext(name string) <-chan struct{} {
	dropped := make(chan struct{})
	d.mu.Lock()
	d.drop[name] = dropped
	d.mu.Unlock()
	return dropped
}

// countedConn is one dialled connection. The pool writes each frame with one
// Write, so Write sees whole request frames.
type countedConn struct {
	net.Conn
	dialer *countingDialer
	name   string
	once   sync.Once
}

func (c *countedConn) Write(p []byte) (int, error) {
	payload := int(binary.LittleEndian.Uint32(p[:4]))
	tagged := len(p) == payload+9
	d := c.dialer
	d.mu.Lock()
	if tagged {
		d.taggedFrames[c.name]++
	} else {
		d.untaggedFrames[c.name]++
	}
	if protocol.MsgType(p[4]) == protocol.TypeHello {
		d.hellos[c.name]++
	}
	dropped := d.drop[c.name]
	delete(d.drop, c.name)
	d.mu.Unlock()
	if dropped != nil {
		close(dropped)
		return len(p), nil
	}
	return c.Conn.Write(p)
}

func (c *countedConn) Close() error {
	c.once.Do(func() {
		d := c.dialer
		d.mu.Lock()
		d.open[c.name]--
		d.closed[c.name]++
		d.mu.Unlock()
	})
	return c.Conn.Close()
}

// poolFixture is newFixture plus a counting dialer and direct pool access.
type poolFixture struct {
	*fixture
	pool    *Pool
	counter *countingDialer
	// goroutines is runtime.NumGoroutine just before the pool was built.
	goroutines int
}

func newPoolFixture(t testing.TB, maxConns int) *poolFixture {
	t.Helper()
	corpus, order := smallCorpus(t)
	f := newFixture(t, corpus, order)
	// The fixture's own receptionist stays as the MS reference path; build a
	// second pool with a counting dialer for the pool assertions.
	counter := newCountingDialer(f.dialer)
	goroutines := runtime.NumGoroutine()
	pool, err := NewPool(counter, order, Config{Analyzer: testAnalyzer(), MaxConnsPerLibrarian: maxConns})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return &poolFixture{fixture: f, pool: pool, counter: counter, goroutines: goroutines}
}

// TestConcurrentSessionsAcrossModes runs 9 concurrent clients over one
// shared Federation, three per mode (CN, CV, CI), and checks every result
// against a single-threaded reference answer for that (mode, query) pair.
func TestConcurrentSessionsAcrossModes(t *testing.T) {
	pf := newPoolFixture(t, 4)
	if _, err := pf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	local, err := BuildGrouped(pf.termsOf, 10, testAnalyzer())
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.pool.Federation().SetupCentralIndex(local); err != nil {
		t.Fatal(err)
	}

	modes := []Mode{ModeCN, ModeCV, ModeCI}
	queries := []string{"alpha federal", "w1 w2 w3", "wallstreet widget", "aurora fiscal"}
	opts := Options{KPrime: 8}

	type key struct {
		mode Mode
		q    string
	}
	want := make(map[key][]Answer)
	for _, m := range modes {
		for _, q := range queries {
			res, err := pf.pool.Query(m, q, 10, opts)
			if err != nil {
				t.Fatalf("mode %v query %q: %v", m, q, err)
			}
			want[key{m, q}] = res.Answers
		}
	}

	const perMode = 3
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, perMode*len(modes))
	for _, m := range modes {
		for g := 0; g < perMode; g++ {
			wg.Add(1)
			go func(m Mode, g int) {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					q := queries[(g+round)%len(queries)]
					res, err := pf.pool.Query(m, q, 10, opts)
					if err != nil {
						errc <- err
						return
					}
					if !sameRanking(res.Answers, want[key{m, q}]) {
						errc <- errConst("concurrent answers differ from single-threaded reference")
						return
					}
				}
			}(m, g)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPoolCloseDuringQueries hammers Close against in-flight queries on
// tagged connections: 10 goroutines query in a loop while the main
// goroutine closes the pool (and three more goroutines race duplicate
// Closes). Nothing may panic, queries must cleanly either succeed or fail,
// and when the dust settles nothing may be left behind: every connection the
// pool dialled is closed, and the goroutines it started — a read and a write
// loop per connection — are gone.
func TestPoolCloseDuringQueries(t *testing.T) {
	t.Run("tagged", func(t *testing.T) {
		pf := newPoolFixture(t, 3)
		if _, err := pf.pool.SetupVocabulary(); err != nil {
			t.Fatal(err)
		}
		const goroutines = 10
		var started sync.WaitGroup
		var wg sync.WaitGroup
		var failures atomic.Int64
		started.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				started.Done()
				for {
					// Retries keep redialling into the shutdown.
					_, err := pf.pool.Query(ModeCV, "alpha federal wallstreet", 10, Options{Retries: 2})
					if err != nil {
						failures.Add(1)
						return
					}
				}
			}()
		}
		started.Wait()
		time.Sleep(5 * time.Millisecond) // let some queries land mid-flight
		var closers sync.WaitGroup
		for c := 0; c < 3; c++ {
			closers.Add(1)
			go func() {
				defer closers.Done()
				if err := pf.pool.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}()
		}
		closers.Wait()
		wg.Wait()
		if failures.Load() != goroutines {
			t.Fatalf("expected every goroutine to observe shutdown, got %d failures", failures.Load())
		}
		for _, name := range pf.order {
			dials, open, _ := pf.counter.stats(name)
			if dials == 0 || open != 0 {
				t.Fatalf("librarian %s: %d of %d dialled connections still open after Close", name, open, dials)
			}
		}
		// The loops (and the in-process librarians serving the closed
		// connections) unwind on their own schedule; two seconds is far
		// beyond what a closed pipe needs to wake its reader.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > pf.goroutines {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines after Close, %d before the pool was built\n%s",
					runtime.NumGoroutine(), pf.goroutines, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
		// Fresh queries fail fast with ErrPoolClosed.
		if _, err := pf.pool.Query(ModeCV, "alpha", 5, Options{}); !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("query after Close: got %v, want ErrPoolClosed", err)
		}
		if err := pf.pool.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}

// TestSetupSharedAcrossSessions verifies the amortization claim behind the
// pool: setup runs once, and every later client sees its results without
// further setup traffic — the per-librarian dial count stays at one and the
// vocabulary exchange is never repeated.
func TestSetupSharedAcrossSessions(t *testing.T) {
	pf := newPoolFixture(t, 4)
	trace, err := pf.pool.SetupVocabulary()
	if err != nil {
		t.Fatal(err)
	}
	setupTrips := trace.RoundTrips(PhaseSetup)
	if setupTrips != len(pf.order) {
		t.Fatalf("vocabulary setup took %d round trips, want %d", setupTrips, len(pf.order))
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := pf.pool.Query(ModeCV, "alpha federal", 10, Options{})
			if err != nil {
				errc <- err
				return
			}
			if res.Trace.RoundTrips(PhaseSetup) != 0 {
				errc <- errConst("a session repeated setup traffic")
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	terms, bytes := pf.pool.Federation().VocabularySize()
	if terms == 0 || bytes == 0 {
		t.Fatal("shared federation lost its vocabulary")
	}
}
