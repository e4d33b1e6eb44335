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

// connServer abstracts "a thing that answers protocol messages over a
// stream" so the two serving loops — the seed one-frame-at-a-time framing
// and the tagged pipelined framing — are written once and shared between the
// immutable Librarian and the segmented UpdatableLibrarian.
//
// The contract that makes sharing safe: dispatch must be callable from many
// goroutines at once, and each call must evaluate against one consistent
// snapshot of the collection. A plain Librarian is immutable, so this is
// trivial; an UpdatableLibrarian loads its current segment manifest at the
// top of each dispatch, which is exactly the per-frame snapshot rule that
// lets updatable librarians grant FeaturePipelining.
type connServer interface {
	serveName() string
	serveMetrics() *libMetrics
	// grantFeatures masks a peer's requested features down to what this
	// server supports right now.
	grantFeatures(requested protocol.Features) protocol.Features
	// helloReply builds the HelloReply advertising the granted features and
	// the current collection statistics.
	helloReply(granted protocol.Features) protocol.Message
	// dispatch answers one request. scratch is reusable evaluation state
	// owned by the caller; conn is the feature set active on the connection
	// (it bounds what a mid-stream Hello may be granted).
	dispatch(scratch *search.Scratch, msg protocol.Message, conn protocol.Features) protocol.Message
}

// collection is one consistent snapshot of a librarian's documents — a plain
// Librarian, or one manifest of an UpdatableLibrarian — as the request
// handlers below need it.
type collection interface {
	rank(scratch *search.Scratch, q *protocol.RankQuery) protocol.Message
	score(scratch *search.Scratch, q *protocol.ScoreDocs) protocol.Message
	fetchOne(id uint32, compressed bool) (protocol.DocBlob, error)
}

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
func rankPhase(c collection, scratch *search.Scratch, msg protocol.Message) protocol.Message {
	var reply protocol.Message
	var top uint32
	var compressed bool
	switch q := msg.(type) {
	case *protocol.RankQuery:
		reply, top, compressed = c.rank(scratch, q), q.FetchTop, q.Compressed
	case *protocol.ScoreDocs:
		reply, top, compressed = c.score(scratch, q), q.FetchTop, q.Compressed
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
		blob, err := c.fetchOne(rr.Results[i].Doc, compressed)
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
func batchReply(c collection, scratch *search.Scratch, m *protocol.BatchQuery) protocol.Message {
	reply := &protocol.BatchReply{Items: make([]protocol.Message, len(m.Items))}
	for i, it := range m.Items {
		reply.Items[i] = rankPhase(c, scratch, it)
	}
	return reply
}

// fetchReply answers a FetchDocs; the first unreadable document fails the
// whole request.
func fetchReply(c collection, m *protocol.FetchDocs) protocol.Message {
	reply := &protocol.FetchReply{Docs: make([]protocol.DocBlob, 0, len(m.Docs))}
	for _, id := range m.Docs {
		blob, err := c.fetchOne(id, m.Compressed)
		if err != nil {
			return &protocol.ErrorReply{Message: err.Error()}
		}
		reply.Docs = append(reply.Docs, blob)
	}
	return reply
}

// serveConn is the seed serving loop shared by Librarian.ServeConn and
// UpdatableLibrarian.ServeConn: strictly ordered request/reply frames, one
// pooled scratch per session. When the connection's first frame is a Hello
// granted FeaturePipelining, the session switches to tagged framing after
// the HelloReply and continues in serveTagged. A Hello on any later frame
// can never change the framing — the peer may already have frames in flight
// — so mid-stream Hellos are granted everything requested except pipelining
// (enforced inside dispatch).
func serveConn(s connServer, conn io.ReadWriter) error {
	m := s.serveMetrics()
	if m != nil {
		m.activeSessions.Inc()
		defer m.activeSessions.Dec()
	}
	scratch := search.GetScratch()
	defer scratch.Release()
	rd := &protocol.Reader{R: conn}
	wr := &protocol.Writer{W: conn}
	first := true
	for {
		msg, _, read, err := rd.ReadReuse()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("librarian %q: %w", s.serveName(), err)
		}
		start := time.Now()
		var reply protocol.Message
		upgrade := protocol.Features(0)
		if h, ok := msg.(*protocol.Hello); ok && first {
			granted := s.grantFeatures(h.Features.Wire())
			reply = s.helloReply(granted)
			if granted.Has(protocol.FeaturePipelining) {
				upgrade = granted
			}
		} else {
			reply = s.dispatch(scratch, msg, 0)
		}
		first = false
		wrote, err := wr.Write(0, reply)
		m.observe(read, wrote, start, reply)
		if err != nil {
			return fmt.Errorf("librarian %q: %w", s.serveName(), err)
		}
		if upgrade != 0 {
			return serveTagged(s, conn, rd, m, upgrade)
		}
	}
}

// serveTagged is the pipelined serving loop: frames carry exchange tags,
// requests are evaluated concurrently (each on its own pooled scratch), and
// replies are written under a mutex with the request's tag — in completion
// order, not arrival order.
func serveTagged(s connServer, conn io.ReadWriter, rd *protocol.Reader, m *libMetrics, features protocol.Features) error {
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
			return fmt.Errorf("librarian %q: %w", s.serveName(), err)
		}
		wg.Add(1)
		go func(msg protocol.Message, tag uint32, read int) {
			defer wg.Done()
			start := time.Now()
			scratch := search.GetScratch()
			reply := s.dispatch(scratch, msg, features)
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
