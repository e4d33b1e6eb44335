package librarian

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"teraphim/internal/protocol"
	"teraphim/internal/search"
)

// replyDocBudget bounds the document bytes (titles and text) a librarian
// attaches to one rank reply. The attached documents are speculative — the
// receptionist keeps only those that survive its merge — and the scores
// share the frame with them, so one huge document must not hold the whole
// reply on a slow link. 32 KiB holds a screen of twenty typical documents,
// plain or compressed, and costs at most 26 ms on the paper's 1.25 MB/s
// WAN. Whatever does not fit, the receptionist requests with FetchDocs.
const replyDocBudget = 32 << 10

// rankPhase answers a RankQuery or ScoreDocs and, when the request asks
// (FetchTop), attaches the documents of the best results to the reply:
// best-first, those of the FetchTop best positive scores that fit the byte
// budget. A document that does not fit is passed over, not a stop — the
// receptionist keys what it gets by document id, so the smaller ones after
// it still save their round trip. One that cannot be read ends the list;
// the fallback fetch reports that error in its own right.
func (m *manifest) rankPhase(scratch *search.Scratch, msg protocol.Message) protocol.Message {
	var reply protocol.Message
	var top uint32
	var compressed bool
	switch q := msg.(type) {
	case *protocol.RankQuery:
		reply, top, compressed = m.rank(scratch, q), q.FetchTop, q.Compressed
	case *protocol.ScoreDocs:
		reply, top, compressed = m.score(scratch, q), q.FetchTop, q.Compressed
	default:
		// Unreachable off the wire (the decoder rejects non-batchable item
		// types); kept for locally constructed batches.
		return &protocol.ErrorReply{Message: fmt.Sprintf("unbatchable message %v", msg.Type())}
	}
	rr, ok := reply.(*protocol.RankReply)
	if !ok {
		return reply
	}
	budget := replyDocBudget
	for i := 0; i < len(rr.Results) && uint64(i) < uint64(top) && rr.Results[i].Score > 0; i++ {
		blob, err := m.fetchOne(rr.Results[i].Doc, compressed)
		if err != nil {
			break
		}
		if size := len(blob.Title) + len(blob.Data); size <= budget {
			budget -= size
			rr.Docs = append(rr.Docs, blob)
		}
	}
	return reply
}

// batchReply evaluates a BatchQuery item by item on the session scratch, in
// order, so every item's result is bit-identical to the same request sent
// alone. Failure is per item: a bad query yields an ErrorReply in its slot
// without touching its batch peers.
func (m *manifest) batchReply(scratch *search.Scratch, q *protocol.BatchQuery) protocol.Message {
	reply := &protocol.BatchReply{Items: make([]protocol.Message, len(q.Items))}
	for i, it := range q.Items {
		reply.Items[i] = m.rankPhase(scratch, it)
	}
	return reply
}

// fetchReply answers a FetchDocs; the first unreadable document fails the
// whole request.
func (m *manifest) fetchReply(q *protocol.FetchDocs) protocol.Message {
	reply := &protocol.FetchReply{Docs: make([]protocol.DocBlob, 0, len(q.Docs))}
	for _, id := range q.Docs {
		blob, err := m.fetchOne(id, q.Compressed)
		if err != nil {
			return &protocol.ErrorReply{Message: err.Error()}
		}
		reply.Docs = append(reply.Docs, blob)
	}
	return reply
}

// evalReply shapes a rank or score evaluation for the wire: a query with no
// indexable terms is an empty ranking, any other failure an ErrorReply.
func evalReply(results []search.Result, stats search.Stats, err error) protocol.Message {
	if errors.Is(err, search.ErrEmptyQuery) {
		return &protocol.RankReply{}
	} else if err != nil {
		return &protocol.ErrorReply{Message: err.Error()}
	}
	reply := &protocol.RankReply{Results: make([]protocol.ScoredDoc, len(results)), Stats: stats}
	for i, r := range results {
		reply.Results[i] = protocol.ScoredDoc{Doc: r.Doc, Score: r.Score}
	}
	return reply
}

// dispatch answers one request against the manifest current when it arrives
// — the per-frame snapshot that lets tagged frames be evaluated concurrently
// while segments land and merge: a session straddling a publication sees
// some answers from the old snapshot and some from the new, never a mixture
// within one answer. scratch is the caller's reusable evaluation state. A
// Hello at any version is answered with this build's.
func (l *Librarian) dispatch(scratch *search.Scratch, msg protocol.Message) protocol.Message {
	m := l.man.Load()
	switch req := msg.(type) {
	case *protocol.Hello:
		return m.hello()
	case *protocol.VocabRequest:
		return m.vocab()
	case *protocol.RankQuery, *protocol.ScoreDocs:
		return m.rankPhase(scratch, msg)
	case *protocol.BatchQuery:
		return m.batchReply(scratch, req)
	case *protocol.FetchDocs:
		return m.fetchReply(req)
	case *protocol.ModelRequest:
		return &protocol.ModelReply{Model: m.lib.model.Marshal()}
	case *protocol.BooleanQuery:
		return m.boolean(req)
	case *protocol.IndexRequest:
		return m.shipIndex(req)
	default:
		return &protocol.ErrorReply{Message: fmt.Sprintf("unexpected message %v", msg.Type())}
	}
}

// ServeConn answers protocol messages on conn until EOF or an unrecoverable
// transport error: strictly ordered request/reply frames, one pooled scratch
// per session, so consecutive queries on a connection reuse the scoring
// kernel's accumulators instead of reallocating them. Protocol-level errors
// are reported to the peer as ErrorReply messages and the session continues.
//
// When the connection's first frame is a Hello at protocol.Version, the
// session switches to tagged framing after the HelloReply and serves
// requests concurrently (see serveTagged). A connection that opens with
// anything else — another message, or a Hello at another version — keeps
// the untagged framing for its life: a Hello on any later frame can never
// change the framing, since the peer may already have frames in flight.
func (l *Librarian) ServeConn(conn io.ReadWriter) error {
	m := l.metrics.Load()
	if m != nil {
		m.activeSessions.Inc()
		defer m.activeSessions.Dec()
	}
	scratch := search.GetScratch()
	defer scratch.Release()
	rd := &protocol.Reader{R: conn}
	wr := &protocol.Writer{W: conn}
	// The framing is open for exactly the first frame.
	for first := true; ; first = false {
		msg, _, read, err := rd.ReadReuse()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("librarian %q: %w", l.name, err)
		}
		start := time.Now()
		hello, isHello := msg.(*protocol.Hello)
		tag := first && isHello && hello.Version == protocol.Version
		reply := l.dispatch(scratch, msg)
		wrote, err := wr.Write(0, reply)
		m.observe(read, wrote, start, reply)
		if err != nil {
			return fmt.Errorf("librarian %q: %w", l.name, err)
		}
		if tag {
			return l.serveTagged(conn, rd, m)
		}
	}
}

// serveTagged is the pipelined serving loop: frames carry exchange tags,
// requests are evaluated concurrently (each on its own pooled scratch), and
// replies are written under a mutex with the request's tag — in completion
// order, not arrival order.
func (l *Librarian) serveTagged(conn io.ReadWriter, rd *protocol.Reader, m *libMetrics) error {
	rd.Tagged = true
	wr := &protocol.Writer{W: conn, Tagged: true}
	var wmu sync.Mutex
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		// Read() decodes into a fresh message: it escapes to the handler
		// goroutine, so the Reader's reusable buffer cannot back it.
		msg, tag, read, err := rd.Read()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("librarian %q: %w", l.name, err)
		}
		wg.Add(1)
		go func(msg protocol.Message, tag uint32, read int) {
			defer wg.Done()
			start := time.Now()
			scratch := search.GetScratch()
			reply := l.dispatch(scratch, msg)
			scratch.Release()
			wmu.Lock()
			wrote, werr := wr.Write(tag, reply)
			wmu.Unlock()
			m.observe(read, wrote, start, reply)
			if werr != nil {
				// The write side is broken; close the transport so the read
				// loop (and the peer) notice instead of hanging.
				if c, ok := conn.(io.Closer); ok {
					_ = c.Close()
				}
			}
		}(msg, tag, read)
	}
}
