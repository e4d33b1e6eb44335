package core

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/protocol"
	"teraphim/internal/store"
)

// TestRemoteCentralIndexParts covers what the parts of the CI set-up add to
// TestRemoteCentralIndexEquivalence: one Call per part in (librarian, part)
// order, the same central index from librarians with fewer terms than parts,
// and one connection per librarian throughout.
func TestRemoteCentralIndexParts(t *testing.T) {
	t.Run("trace and connections", func(t *testing.T) {
		pf := newPoolFixture(t, 4)
		trace, err := pf.pool.SetupCentralIndexRemote(10)
		if err != nil {
			t.Fatal(err)
		}
		if len(trace.Calls) != len(pf.order)*centralParts {
			t.Fatalf("%d calls, want %d per librarian", len(trace.Calls), centralParts)
		}
		for i, c := range trace.Calls {
			if c.Librarian != pf.order[i/centralParts] || c.ReqType != protocol.TypeIndexRequest || c.RespBytes == 0 {
				t.Fatalf("call %d: %s %v with %d reply bytes, want %s's IndexRequest part %d",
					i, c.Librarian, c.ReqType, c.RespBytes, pf.order[i/centralParts], i%centralParts)
			}
		}
		// simnet shapes bandwidth per connection, so a second connection
		// would be simulated bandwidth the link does not have.
		for _, name := range pf.order {
			if dials, _, maxOpen := pf.counter.stats(name); dials != 1 || maxOpen != 1 {
				t.Fatalf("librarian %s: %d dials, %d connections open at once; want the Hello's one", name, dials, maxOpen)
			}
		}
	})
	t.Run("window", func(t *testing.T) {
		// Each librarian reads every frame as it arrives and answers its
		// IndexRequests 10 ms later, so what it holds at once is what the
		// receptionist keeps outstanding.
		corpus, order := smallCorpus(t)
		dialer := mapDialer{}
		peaks := make([]atomic.Int32, len(order))
		for i, name := range order {
			lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: testAnalyzer()})
			if err != nil {
				t.Fatal(err)
			}
			dialer[name] = func() (net.Conn, error) {
				client, server := net.Pipe()
				go serveSlowParts(server, lib, &peaks[i])
				return client, nil
			}
		}
		pool, err := NewPool(dialer, order, Config{Analyzer: testAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Close()
		if _, err := pool.SetupCentralIndexRemote(10); err != nil {
			t.Fatal(err)
		}
		for i, name := range order {
			if peak := peaks[i].Load(); peak != centralWindow {
				t.Errorf("librarian %s held %d parts at once, want %d", name, peak, centralWindow)
			}
		}
	})
	t.Run("fewer terms than parts", func(t *testing.T) {
		corpus := map[string][]store.Document{
			"AP": {{Title: "a0", Text: "alpha beta"}, {Title: "a1", Text: "alpha"}},
			"FR": {{Title: "f0", Text: "gamma alpha"}},
		}
		order := []string{"AP", "FR"}
		f := newFixture(t, corpus, order)
		want, err := BuildGrouped(f.termsOf, 2, testAnalyzer())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.recep.SetupCentralIndexRemote(2); err != nil {
			t.Fatal(err)
		}
		if got, want := sha256Of(t, f.recep.Federation().CentralIndex()), sha256Of(t, want); got != want {
			t.Fatalf("remote grouped index hashes to %s, BuildGrouped's to %s", got, want)
		}
	})
}

// serveSlowParts serves lib on conn in a pool connection's framing, reading
// every frame as it arrives and answering each IndexRequest 10 ms later from
// its own goroutine; peak records the most IndexRequests held at once.
func serveSlowParts(conn net.Conn, lib *librarian.Librarian, peak *atomic.Int32) {
	defer conn.Close()
	rd, wr := &protocol.Reader{R: conn}, &protocol.Writer{W: conn}
	var mu sync.Mutex
	var held atomic.Int32
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		msg, tag, _, err := rd.Read()
		if err != nil {
			return
		}
		if _, ok := msg.(*protocol.IndexRequest); !ok {
			mu.Lock()
			_, err = wr.Write(tag, librarianHandle(lib, msg))
			mu.Unlock()
			if err != nil {
				return
			}
			rd.Tagged, wr.Tagged = true, true
			continue
		}
		if n := held.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(10 * time.Millisecond)
			reply := librarianHandle(lib, msg)
			held.Add(-1)
			mu.Lock()
			_, _ = wr.Write(tag, reply)
			mu.Unlock()
		}()
	}
}

// tamperDialer serves each librarian of libs through relay, one frame at a
// time, passing each IndexRequest through tamper, which returns the reply.
func tamperDialer(libs map[string]*librarian.Librarian, tamper func(name string, lib *librarian.Librarian, q *protocol.IndexRequest) protocol.Message) mapDialer {
	d := mapDialer{}
	for name, lib := range libs {
		d[name] = func() (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				relay(server, -1, func(msg protocol.Message) protocol.Message {
					if q, ok := msg.(*protocol.IndexRequest); ok {
						return tamper(name, lib, q)
					}
					return librarianHandle(lib, msg)
				})
			}()
			return client, nil
		}
	}
	return d
}

// TestRemoteCentralIndexRejectsHostileParts: a part whose first term does not
// follow the previous part's last term, or whose groups are not the
// librarian's, fails the set-up with protocol.ErrBadIndexReply, installs
// nothing, and leaves no exchange running — also one stalled at another
// librarian, which the failure cancels.
func TestRemoteCentralIndexRejectsHostileParts(t *testing.T) {
	corpus, order := smallCorpus(t)
	libs := map[string]*librarian.Librarian{}
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: testAnalyzer()})
		if err != nil {
			t.Fatal(err)
		}
		libs[name] = lib
	}
	honest := func(lib *librarian.Librarian, q *protocol.IndexRequest) protocol.Message {
		return librarianHandle(lib, q)
	}
	release := make(chan struct{})
	defer close(release)
	for _, tc := range []struct {
		name   string
		tamper func(name string, lib *librarian.Librarian, q *protocol.IndexRequest) protocol.Message
	}{
		{"part out of order", func(name string, lib *librarian.Librarian, q *protocol.IndexRequest) protocol.Message {
			if name == "FR" && q.Part == 3 {
				again := *q
				again.Part = 1
				return honest(lib, &again)
			}
			return honest(lib, q)
		}},
		{"part groups disagree", func(name string, lib *librarian.Librarian, q *protocol.IndexRequest) protocol.Message {
			reply := honest(lib, q)
			if ir, ok := reply.(*protocol.IndexReply); ok && name == "WSJ" && q.Part == 5 {
				ir.Hi++
			}
			return reply
		}},
		{"failure cancels a stalled part", func(name string, lib *librarian.Librarian, q *protocol.IndexRequest) protocol.Message {
			switch name {
			case "AP": // stalls until the test ends
				<-release
			case "FR":
				reply := honest(lib, q)
				if ir, ok := reply.(*protocol.IndexReply); ok {
					ir.Lo++
				}
				return reply
			}
			return honest(lib, q)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := NewPool(tamperDialer(libs, tc.tamper), order, Config{Analyzer: testAnalyzer()})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			goroutines := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := pool.SetupCentralIndexRemote(10)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("set-up still running 10 s after a bad part")
			}
			if !errors.Is(err, protocol.ErrBadIndexReply) {
				t.Fatalf("got %v, want ErrBadIndexReply", err)
			}
			if pool.Federation().CentralIndex() != nil {
				t.Fatal("a failed set-up installed a central index")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after the failed set-up, %d before\n%s",
						runtime.NumGoroutine(), goroutines, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestCallParallelChecksNamesFirst: a name the federation does not hold fails
// the call before any request is built, so no exchange starts — not even to
// the known librarians named before it.
func TestCallParallelChecksNamesFirst(t *testing.T) {
	corpus, order := smallCorpus(t)
	lib, err := librarian.Build(order[0], corpus[order[0]], librarian.BuildOptions{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int32
	dialer := mapDialer{order[0]: func() (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			relay(server, -1, func(msg protocol.Message) protocol.Message {
				if msg.Type() != protocol.TypeHello {
					served.Add(1)
				}
				return librarianHandle(lib, msg)
			})
		}()
		return client, nil
	}}
	pool, err := NewPool(dialer, order[:1], Config{Analyzer: testAnalyzer()})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	e := &exec{ctx: context.Background(), fed: pool.fed, pool: pool}
	built := 0
	var trace Trace
	_, err = e.callParallel(&trace, PhaseSetup, []string{order[0], "bogus"}, func(string) protocol.Message {
		built++
		return &protocol.VocabRequest{}
	})
	if err == nil || built != 0 {
		t.Fatalf("unknown librarian: err %v after building %d requests; want an error and none built", err, built)
	}
	// A later exchange on the same connection finds the librarian has seen
	// nothing before it.
	if _, err := pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("librarian served %d requests, want only SetupVocabulary's", n)
	}
}
