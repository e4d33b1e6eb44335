package core

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/protocol"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// buildRecep wires a receptionist over corpus with the given config.
func buildRecep(t *testing.T, corpus map[string][]store.Document, order []string, cfg Config) *Pool {
	t.Helper()
	a := testAnalyzer()
	var libs []*librarian.Librarian
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
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

// eachReplica visits every replica of every librarian in the pool.
func eachReplica(p *Pool, visit func(lib string, rep *replica)) {
	for name, rt := range p.routers {
		for _, rep := range rt.set {
			visit(name, rep)
		}
	}
}

// TestPipelineSharesOneConnection is the capacity-multiplication pin: with
// one connection per librarian, 16 concurrent queries all complete over that
// single connection per replica — an untagged wire would need 16.
func TestPipelineSharesOneConnection(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 1, Config{MaxConnsPerLibrarian: 1})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 5, Options{})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	eachReplica(f.pool, func(lib string, rep *replica) {
		rep.pipes.mu.Lock()
		n := len(rep.pipes.conns)
		rep.pipes.mu.Unlock()
		if n > 1 {
			t.Errorf("%s %s: %d pipelined connections, want at most 1", lib, rep.endpoint, n)
		}
	})
	assertNoLeakedConns(t, f.pool)
}

// TestPipeDemuxMisbehavingPeer drives a pipelined connection against a
// hand-rolled peer: replies for unknown tags and duplicate replies are
// discarded without disturbing other exchanges, while a corrupt frame kills
// the connection and fails what is in flight.
func TestPipeDemuxMisbehavingPeer(t *testing.T) {
	newPipe := func(t *testing.T) (*pipeConn, net.Conn) {
		t.Helper()
		pool := &Pool{metrics: newMetrics(obs.NewRegistry()), done: make(chan struct{})}
		rep := newReplica("X#0", 1)
		client, server := net.Pipe()
		pc := newPipeConn(pool, rep, client)
		rep.pipes.mu.Lock()
		rep.pipes.conns = append(rep.pipes.conns, pc)
		rep.pipes.mu.Unlock()
		t.Cleanup(func() {
			pc.fail(ErrPoolClosed, false)
			server.Close()
		})
		return pc, server
	}
	exchange := func(pc *pipeConn) (protocol.Message, error) {
		pend := &pipePending{done: make(chan struct{})}
		if !pc.register(pend) {
			return nil, errConst("connection refused the exchange")
		}
		_, reply, err := pc.exchange(context.Background(), time.Second, "X", PhaseSetup, &protocol.VocabRequest{}, pend)
		return reply, err
	}

	t.Run("unknown and duplicate tags are discarded", func(t *testing.T) {
		pc, server := newPipe(t)
		rd := &protocol.Reader{R: server, Tagged: true}
		wr := &protocol.Writer{W: server, Tagged: true}
		go func() {
			msg, tag, _, err := rd.Read()
			if err != nil {
				return
			}
			if _, ok := msg.(*protocol.VocabRequest); !ok {
				return
			}
			// An unrelated tag, the real reply, then the same tag again.
			_, _ = wr.Write(tag+1000, &protocol.ErrorReply{Message: "misrouted"})
			_, _ = wr.Write(tag, &protocol.VocabReply{Terms: []protocol.TermStat{{Term: "t", FT: 1}}})
			_, _ = wr.Write(tag, &protocol.ErrorReply{Message: "duplicate"})
			// A second exchange proves the connection survived the garbage.
			msg, tag, _, err = rd.Read()
			if err != nil {
				return
			}
			_, _ = wr.Write(tag, &protocol.VocabReply{Terms: []protocol.TermStat{{Term: "u", FT: 2}}})
		}()
		reply, err := exchange(pc)
		if err != nil {
			t.Fatalf("first exchange: %v", err)
		}
		vr, ok := reply.(*protocol.VocabReply)
		if !ok || len(vr.Terms) != 1 || vr.Terms[0].Term != "t" {
			t.Fatalf("first exchange got %#v, want the tag-matched VocabReply", reply)
		}
		reply, err = exchange(pc)
		if err != nil {
			t.Fatalf("exchange after garbage frames: %v", err)
		}
		if vr, ok := reply.(*protocol.VocabReply); !ok || vr.Terms[0].Term != "u" {
			t.Fatalf("second exchange got %#v", reply)
		}
	})

	t.Run("corrupt frame kills the connection", func(t *testing.T) {
		pc, server := newPipe(t)
		go func() {
			rd := &protocol.Reader{R: server, Tagged: true}
			if _, _, _, err := rd.Read(); err != nil {
				return
			}
			// A frame whose length claims more than MaxFrameSize.
			_, _ = server.Write(bytes.Repeat([]byte{0xff}, 9))
		}()
		_, err := exchange(pc)
		if err == nil {
			t.Fatal("exchange against a corrupt peer: want error")
		}
		select {
		case <-pc.dead:
		case <-time.After(time.Second):
			t.Fatal("corrupt frame did not kill the connection")
		}
	})
}

// TestCrossClientBatching checks the receptionist-level coalescing: queries
// from concurrent clients inside one window share frames of rank queries
// (visible as BatchSize in their traces); TestOracle checks their answers.
func TestCrossClientBatching(t *testing.T) {
	corpus, order := smallCorpus(t)
	batched := buildRecep(t, corpus, order, Config{})

	queries := []string{
		"alpha federal", "wallstreet widget", "fiscal finance", "aurora avalanche",
		"alpha w1", "federal w2", "widget w3", "alpha wallstreet federal",
	}
	type outcome struct {
		q   string
		res *Result
		err error
	}
	// A start barrier lines the clients up so their rank exchanges land
	// inside one another's batch windows.
	start := make(chan struct{})
	outs := make(chan outcome, len(queries))
	for _, q := range queries {
		go func(q string) {
			<-start
			res, err := batched.Query(ModeCN, q, 10, Options{BatchWindow: 25 * time.Millisecond})
			outs <- outcome{q, res, err}
		}(q)
	}
	close(start)
	maxBatch := 0
	for range queries {
		out := <-outs
		if out.err != nil {
			t.Fatalf("%q: %v", out.q, out.err)
		}
		for _, c := range out.res.Trace.Calls {
			if c.BatchSize > maxBatch {
				maxBatch = c.BatchSize
			}
			if c.BatchSize > 0 && c.ReqType != protocol.TypeRankQuery {
				t.Errorf("%q: batched call with request type %v", out.q, c.ReqType)
			}
		}
	}
	if maxBatch < 2 {
		t.Fatalf("8 concurrent clients in a 25ms window never shared a frame (max batch size %d)", maxBatch)
	}
	assertNoLeakedConns(t, batched)
}

// TestPipelinedRequestBytesExact pins the write-loop accounting: the frame
// size is stamped before the bytes reach the wire, so even on a zero-latency
// link — where the reply can settle the exchange before Write returns —
// every Call reports its request bytes and a trace's byte total is an exact,
// repeatable count.
func TestPipelinedRequestBytesExact(t *testing.T) {
	corpus, order := smallCorpus(t)
	queries := []string{"alpha federal wallstreet", "federal fiscal", "widget", "alpha w1 w2 w3", "aurora finance wholesale"}
	run := func() (bytes int) {
		r := buildRecep(t, corpus, order, Config{})
		for exchanges := 0; exchanges < 2000; {
			for _, q := range queries {
				res, err := r.Query(ModeCN, q, 10, Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Trace.Calls {
					if c.ReqBytes <= 0 || c.RespBytes <= 0 {
						t.Fatalf("exchange %d (%q to %s): %d request bytes, %d reply bytes", exchanges, q, c.Librarian, c.ReqBytes, c.RespBytes)
					}
					exchanges++
				}
				bytes += res.Trace.BytesTransferred(0)
			}
		}
		return bytes
	}
	if first, second := run(), run(); first != second {
		t.Fatalf("the same queries moved %d bytes, then %d", first, second)
	}
}
