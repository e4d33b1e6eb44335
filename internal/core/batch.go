package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"teraphim/internal/protocol"
)

// Cross-client query batching.
//
// The paper's cost model charges per network contact, so under concurrency
// the receptionist can do better than one frame per query: rank-phase
// requests bound for the same librarian that arrive within Options.
// BatchWindow of each other are coalesced into one BatchQuery frame and
// answered by one BatchReply — round trips per query fall with the offered
// load. The librarian evaluates the batched queries exactly as it would
// separately (same scratch, same order-independent per-query evaluation), so
// batching cannot change results, and failure stays per-query: one bad query
// gets its ErrorReply without poisoning its batch-mates.

// maxBatchItems seals a batch early: a full group dispatches immediately
// instead of waiting out its window, bounding both frame size and the
// latency a stampede adds to its first arrival.
const maxBatchItems = 64

// batcher coalesces concurrent rank-phase requests per librarian. One lives
// on every Pool; its groups form and dissolve per window, leaving no state
// between idle periods.
type batcher struct {
	pool *Pool

	mu sync.Mutex
	// open holds the group currently accepting requests for each librarian.
	open map[string]*batchGroup
}

func newBatcher(p *Pool) *batcher {
	return &batcher{pool: p, open: make(map[string]*batchGroup)}
}

// batchItem is one member query riding a batch: its request going in, and
// its slice of the outcome coming back.
type batchItem struct {
	req     protocol.Message
	timeout time.Duration
	done    chan struct{} // closed when calls/reply/err are set
	calls   []Call
	reply   protocol.Message
	err     error
}

// batchGroup is the set of queries that will share one frame. The first
// arrival is the leader: it waits out the window (or the group filling up),
// seals the group, and dispatches it.
type batchGroup struct {
	items    []*batchItem
	full     chan struct{} // closed when the group hits maxBatchItems
	endpoint string        // the replica the frame went to, set before done closes
}

// batchable reports whether this exchange should go through the batcher: a
// window configured, and a rank-phase query type worth coalescing (setup and
// fetch traffic is per-connection or bulky; only the per-query fan-out
// messages batch).
func (e *exec) batchable(phase Phase, req protocol.Message) bool {
	if e.policy.batchWindow <= 0 || phase != PhaseRank {
		return false
	}
	switch req.(type) {
	case *protocol.RankQuery, *protocol.ScoreDocs:
		return true
	}
	return false
}

// do runs one request through the batcher: join (or found) the librarian's
// open group, let the leader collect peers for up to one window, and wait for
// the dispatched frame's outcome and the endpoint it went to. The caller's
// retry policy wraps this call.
func (b *batcher) do(e *exec, name string, req protocol.Message) ([]Call, protocol.Message, string, error) {
	item := &batchItem{req: req, timeout: e.policy.timeout, done: make(chan struct{})}
	b.mu.Lock()
	g := b.open[name]
	leader := g == nil
	if leader {
		g = &batchGroup{full: make(chan struct{})}
		b.open[name] = g
	}
	g.items = append(g.items, item)
	if len(g.items) >= maxBatchItems {
		// Seal: the group leaves the open map (late arrivals found a fresh
		// one) and the leader is woken to dispatch immediately.
		delete(b.open, name)
		close(g.full)
	}
	b.mu.Unlock()

	if leader {
		timer := time.NewTimer(e.policy.batchWindow)
		select {
		case <-timer.C:
		case <-g.full:
		case <-e.ctx.Done():
			// The leader's own query was abandoned, but peers may have
			// joined: seal and dispatch for them regardless.
		}
		timer.Stop()
		b.mu.Lock()
		if b.open[name] == g {
			delete(b.open, name)
		}
		items := append([]*batchItem(nil), g.items...)
		b.mu.Unlock()
		// Dispatch detached: no single member's context may cancel the
		// frame its batch-mates are riding.
		go b.dispatch(e, name, g, items)
	}

	select {
	case <-item.done:
	case <-e.ctx.Done():
		return nil, nil, "", e.ctx.Err()
	}
	return item.calls, item.reply, g.endpoint, item.err
}

// dispatch ships one sealed group and distributes the outcome. It runs under
// context.Background with the members' largest timeout: the exchange itself
// reuses attempt(), so replica routing, pipelining and health reporting all
// behave exactly as for an unbatched exchange.
func (b *batcher) dispatch(e *exec, name string, g *batchGroup, items []*batchItem) {
	var timeout time.Duration
	for _, it := range items {
		if it.timeout > timeout {
			timeout = it.timeout
		}
	}
	de := &exec{ctx: context.Background(), fed: e.fed, pool: e.pool, plan: plan{policy: callPolicy{timeout: timeout}}}

	if len(items) == 1 {
		// A batch of one ships the original message: bit-identical to the
		// unbatched wire, so an idle receptionist pays zero overhead.
		it := items[0]
		it.calls, it.reply, g.endpoint, it.err = de.attempt(de.ctx, name, PhaseRank, it.req, "", false, nil)
		close(it.done)
		return
	}

	bq := &protocol.BatchQuery{Items: make([]protocol.Message, len(items))}
	for i, it := range items {
		bq.Items[i] = it.req
	}
	calls, reply, endpoint, err := de.attempt(de.ctx, name, PhaseRank, bq, "", false, nil)
	g.endpoint = endpoint
	var frame Call
	if len(calls) > 0 {
		frame = calls[len(calls)-1]
	}
	n := len(items)
	if err == nil {
		br, ok := reply.(*protocol.BatchReply)
		if !ok || len(br.Items) != n || len(br.Sizes) != n || len(bq.Sizes) != n {
			// A malformed batch reply is a completed exchange that cannot be
			// attributed to its queries; re-sending would reproduce it.
			err = &protocol.RemoteError{Message: fmt.Sprintf(
				"librarian %q answered a %d-query batch with a malformed %v", name, n, reply.Type())}
		} else {
			reqOverhead := frame.ReqBytes - sum(bq.Sizes)
			respOverhead := frame.RespBytes - sum(br.Sizes)
			for i, it := range items {
				call := Call{
					Librarian: name, Replica: frame.Replica, Phase: PhaseRank,
					ReqType:   it.req.Type(),
					ReqBytes:  bq.Sizes[i] + shareOverhead(reqOverhead, n, i),
					RespBytes: br.Sizes[i] + shareOverhead(respOverhead, n, i),
					Ship:      frame.Ship, Wait: frame.Wait, BatchSize: n,
				}
				it.reply, it.err = classifyReply(&call, br.Items[i])
				it.calls = []Call{call}
				close(it.done)
			}
			return
		}
	}
	// Transport failure (or malformed reply): every member failed together.
	// Each gets its own Call record so the trace still shows one attempt per
	// query, with this query's request type on it.
	for _, it := range items {
		if len(calls) > 0 {
			call := frame
			call.ReqType = it.req.Type()
			call.BatchSize = n
			it.calls = []Call{call}
		}
		it.err = err
		close(it.done)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// shareOverhead splits the batch framing overhead evenly across the n
// members, with the remainder charged to member 0.
func shareOverhead(total, n, i int) int {
	if total <= 0 {
		return 0
	}
	s := total / n
	if i == 0 {
		s += total % n
	}
	return s
}
