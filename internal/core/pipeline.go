package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"teraphim/internal/protocol"
)

// Pipelined connections.
//
// The seed pool leases a whole connection per in-flight exchange, so a
// replica's concurrency is capped at MaxConnsPerLibrarian. When both sides
// negotiate FeaturePipelining (via the Hello feature bitmask), frames carry a
// u32 exchange tag and one connection multiplexes up to PipelineDepth
// concurrent exchanges: the lease unit shifts from an exclusive connection to
// an exclusive tag, multiplying per-replica capacity by the pipeline depth
// without opening more sockets. The paper's cost model charges per network
// contact; pipelining keeps contacts (and connections) flat while concurrency
// grows.
//
// Failure semantics mirror the legacy path: any deadline expiry — the
// per-call policy timer or a context deadline — kills the whole connection
// (the peer is presumed stuck; every pending exchange errors out and retries
// redial), while a plain cancellation merely abandons its tag, leaving the
// connection healthy for its neighbours.

// Wire feature constants re-exported so callers configuring a Receptionist
// don't need to import internal/protocol.
const (
	// FeaturePipelining negotiates tagged frames and connection multiplexing.
	FeaturePipelining = protocol.FeaturePipelining
	// FeatureBatching negotiates cross-client query batching (BatchQuery).
	FeatureBatching = protocol.FeatureBatching
	// FeatureRankFetch lets rank replies carry the answers' documents.
	FeatureRankFetch = protocol.FeatureRankFetch
	// FeatureNone requests the seed wire protocol: untagged frames, one
	// exchange per connection, no batching. Use it to pin a receptionist to
	// pre-negotiation behaviour.
	FeatureNone = protocol.FeatureNone
)

// DefaultWireFeatures is requested when Config.WireFeatures is zero.
const DefaultWireFeatures = protocol.FeaturePipelining | protocol.FeatureBatching | protocol.FeatureRankFetch

// DefaultPipelineDepth bounds concurrent exchanges per pipelined connection
// when Config.PipelineDepth is zero.
const DefaultPipelineDepth = 8

// Wire states for replica.wire: what the Hello negotiation told us.
const (
	wireUnknown   int32 = iota // no handshake completed yet
	wirePipelined              // peer granted FeaturePipelining
	wireLegacy                 // peer declined; use the seed exclusive-conn path
)

// errWireLegacy is returned by attemptPiped when the replica is known to
// speak only the seed framing; the caller falls through to the legacy path.
var errWireLegacy = errors.New("core: replica negotiated legacy framing")

// errConnDraining reports a pipelined connection that stopped accepting new
// exchanges because its replica is being removed.
var errConnDraining = errors.New("core: connection draining")

// pipePending is one in-flight exchange on a pipeConn. All fields except done
// are guarded by the owning pipeConn's mu: the write loop stamps them, the
// read loop settles them, and the exchanging goroutine copies them out — any
// of which may race with a timed-out exchanger absent the lock.
type pipePending struct {
	done chan struct{} // closed exactly once when reply/err is set

	start     time.Time // enqueue time; Ship measures from here
	writtenAt time.Time
	ship      time.Duration // queue + serialization time
	wait      time.Duration // write complete -> reply delivered
	wrote     int
	read      int
	reply     protocol.Message
	err       error
	abandoned bool // cancelled before write; the write loop skips it
}

// pipeWrite is one queued frame for a pipeConn's write loop.
type pipeWrite struct {
	tag  uint32
	msg  protocol.Message
	pend *pipePending
}

// pipeConn is one negotiated, tagged connection multiplexing concurrent
// exchanges. A dedicated write loop serializes frames and a dedicated read
// loop demultiplexes replies by tag; replies for unknown tags (abandoned
// exchanges) are discarded without disturbing the framing.
type pipeConn struct {
	pool *Pool
	rep  *replica
	conn net.Conn

	// granted is what the peer granted in this connection's Hello.
	granted protocol.Features

	writeCh chan pipeWrite
	dead    chan struct{} // closed by fail(); loops treat it as shutdown

	mu       sync.Mutex
	pending  map[uint32]*pipePending
	nextTag  uint32
	err      error // first failure, set by fail()
	busy     bool  // pending > 0; drives in-use/idle gauge accounting
	draining bool  // no new exchanges; close when pending drains to zero
}

func newPipeConn(p *Pool, rep *replica, conn net.Conn, granted protocol.Features) *pipeConn {
	pc := &pipeConn{
		pool:    p,
		rep:     rep,
		conn:    conn,
		granted: granted,
		writeCh: make(chan pipeWrite, p.depth),
		dead:    make(chan struct{}),
		pending: make(map[uint32]*pipePending),
	}
	p.metrics.connsIdle.Inc()
	go pc.writeLoop()
	go pc.readLoop()
	return pc
}

// syncBusyLocked moves the in-use/idle gauges when the connection crosses the
// 0↔>0 pending boundary: a pipelined connection counts as in-use while any
// exchange is in flight on it, idle otherwise. Caller holds pc.mu. After
// fail() the gauges are settled once and for all — a read-loop iteration that
// raced the failure must not flip them again off the cleared pending map.
func (pc *pipeConn) syncBusyLocked() {
	if pc.err != nil {
		return
	}
	busy := len(pc.pending) > 0
	if busy == pc.busy {
		return
	}
	pc.busy = busy
	m := pc.pool.metrics
	if busy {
		m.connsIdle.Dec()
		m.connsInUse.Inc()
	} else {
		m.connsInUse.Dec()
		m.connsIdle.Inc()
	}
}

// register adds a new pending exchange and returns its tag.
func (pc *pipeConn) register(pend *pipePending) (uint32, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return 0, pc.err
	}
	if pc.draining {
		return 0, errConnDraining
	}
	pc.nextTag++
	tag := pc.nextTag
	pc.pending[tag] = pend
	pc.syncBusyLocked()
	return tag, nil
}

// forget abandons a tag after a plain cancellation: the exchange's slot is
// released but the connection stays up — a late reply for the tag is
// discarded by the read loop, so the stream never desynchronizes and the
// discard counts nothing against the dirty-connection metric.
func (pc *pipeConn) forget(tag uint32) {
	pc.mu.Lock()
	pend, ok := pc.pending[tag]
	if !ok {
		pc.mu.Unlock()
		return
	}
	pend.abandoned = true
	delete(pc.pending, tag)
	pc.syncBusyLocked()
	drained := pc.draining && len(pc.pending) == 0
	pc.mu.Unlock()
	if drained {
		pc.fail(errConnDraining, false)
	}
}

// fail terminates the connection: every pending exchange is settled with err,
// the socket is closed, and the connection leaves its replica's set. dirty
// marks the teardown as a mid-exchange stream loss for the dirty-discard
// counter. Idempotent; only the first call's error sticks.
func (pc *pipeConn) fail(err error, dirty bool) {
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	pc.err = err
	close(pc.dead)
	for _, pend := range pc.pending {
		pend.err = err
		close(pend.done)
	}
	pc.pending = nil
	busy := pc.busy
	pc.mu.Unlock()
	m := pc.pool.metrics
	if busy {
		m.connsInUse.Dec()
	} else {
		m.connsIdle.Dec()
	}
	if dirty {
		m.dirtyDiscards.Inc()
	}
	pc.conn.Close()
	pc.rep.pipes.forget(pc)
}

// closedByPool reports whether the pool has been Closed — teardown noise from
// Close must not count as dirty discards.
func (pc *pipeConn) closedByPool() bool {
	select {
	case <-pc.pool.done:
		return true
	default:
		return false
	}
}

func (pc *pipeConn) writeLoop() {
	wr := &protocol.Writer{Tagged: true} // frames only; the loop writes them
	for {
		select {
		case w := <-pc.writeCh:
			pc.mu.Lock()
			skip := w.pend.abandoned || pc.err != nil
			pc.mu.Unlock()
			if skip {
				continue
			}
			frame, err := wr.Frame(w.tag, w.msg)
			// Stamp before the write hits the wire: the reply races the
			// stamping otherwise, and a zero writtenAt would turn the
			// measured wait into garbage that poisons the hedge-delay
			// quantile. Ship is therefore the queue-to-wire delay and Wait
			// the write plus round trip — together the exchange's true total.
			// The frame size is stamped here too, or Call.ReqBytes reads 0.
			began := time.Now()
			pc.mu.Lock()
			w.pend.writtenAt = began
			w.pend.ship = began.Sub(w.pend.start)
			w.pend.wrote = len(frame)
			pc.mu.Unlock()
			if err == nil {
				_, err = pc.conn.Write(frame)
			}
			if err != nil {
				pc.fail(fmt.Errorf("core: pipelined write: %w", err), !pc.closedByPool())
				return
			}
			pc.pool.metrics.wireBytesOut.Add(uint64(len(frame)))
		case <-pc.dead:
			return
		}
	}
}

func (pc *pipeConn) readLoop() {
	rd := &protocol.Reader{R: pc.conn, Tagged: true}
	for {
		msg, tag, n, err := rd.Read()
		if err != nil {
			pc.mu.Lock()
			busy := len(pc.pending) > 0
			pc.mu.Unlock()
			pc.fail(fmt.Errorf("core: pipelined read: %w", err), busy && !pc.closedByPool())
			return
		}
		m := pc.pool.metrics
		m.wireBytesIn.Add(uint64(n))
		m.wireRoundTrips.Inc()
		now := time.Now()
		pc.mu.Lock()
		if pend, ok := pc.pending[tag]; ok {
			delete(pc.pending, tag)
			pend.read = n
			pend.reply = msg
			if pend.writtenAt.IsZero() {
				// Reply landed before the request's write was even queued
				// to the wire (only a misbehaving peer can do this); charge
				// the whole elapsed time as wait.
				pend.wait = now.Sub(pend.start)
			} else {
				pend.wait = now.Sub(pend.writtenAt)
			}
			close(pend.done)
		}
		// Unknown or duplicate tags (late replies for abandoned exchanges)
		// fall through: the frame was fully consumed, framing stays intact.
		pc.syncBusyLocked()
		drained := pc.draining && len(pc.pending) == 0
		pc.mu.Unlock()
		if drained {
			pc.fail(errConnDraining, false)
			return
		}
	}
}

// exchange runs one tagged request/reply on the connection under the caller's
// deadline policy: a policy-timer or context-deadline expiry kills the whole
// connection (legacy parity — the peer is presumed stuck and retries must
// redial), while a plain cancellation abandons only this exchange's tag.
func (pc *pipeConn) exchange(ctx context.Context, timeout time.Duration, name string, phase Phase, req protocol.Message) (Call, protocol.Message, error) {
	if !pc.granted.Has(protocol.FeatureRankFetch) {
		req = protocol.WithoutRankFetch(req)
	}
	call := Call{Librarian: name, Replica: pc.rep.endpoint, Phase: phase, ReqType: req.Type()}
	pend := &pipePending{done: make(chan struct{}), start: time.Now()}
	tag, err := pc.register(pend)
	if err != nil {
		return call, nil, err
	}

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}

	select {
	case pc.writeCh <- pipeWrite{tag: tag, msg: req, pend: pend}:
	case <-pc.dead:
		pc.mu.Lock()
		err := pc.err
		pc.mu.Unlock()
		return call, nil, err
	case <-ctx.Done():
		pc.forget(tag)
		return call, nil, ctx.Err()
	case <-timer:
		pc.fail(os.ErrDeadlineExceeded, true)
		return call, nil, os.ErrDeadlineExceeded
	}

	select {
	case <-pend.done:
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			// A deadline expiry means the peer may be wedged mid-reply: kill
			// the connection so its neighbours don't inherit a stuck peer.
			pc.fail(os.ErrDeadlineExceeded, true)
			return call, nil, os.ErrDeadlineExceeded
		}
		pc.forget(tag)
		return call, nil, ctx.Err()
	case <-timer:
		pc.fail(os.ErrDeadlineExceeded, true)
		return call, nil, os.ErrDeadlineExceeded
	}

	pc.mu.Lock()
	reply, rerr := pend.reply, pend.err
	call.ReqBytes, call.RespBytes = pend.wrote, pend.read
	call.Ship, call.Wait = pend.ship, pend.wait
	pc.mu.Unlock()
	if rerr != nil {
		return call, nil, rerr
	}
	reply, err = classifyReply(&call, reply)
	return call, reply, err
}

// pipeSet is a replica's collection of pipelined connections.
type pipeSet struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled when conns/creating changes
	conns    []*pipeConn
	creating int
	draining bool
}

func (s *pipeSet) init() { s.cond = sync.NewCond(&s.mu) }

// forget removes pc from the set (called by pipeConn.fail).
func (s *pipeSet) forget(pc *pipeConn) {
	s.mu.Lock()
	for i, c := range s.conns {
		if c == pc {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// closeAll tears down every connection immediately (pool Close).
func (s *pipeSet) closeAll() {
	s.mu.Lock()
	conns := append([]*pipeConn(nil), s.conns...)
	s.mu.Unlock()
	for _, pc := range conns {
		pc.fail(net.ErrClosed, false)
	}
}

// drain stops new exchanges and lets in-flight ones finish; idle connections
// close immediately (replica removal).
func (s *pipeSet) drain() {
	s.mu.Lock()
	s.draining = true
	conns := append([]*pipeConn(nil), s.conns...)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, pc := range conns {
		pc.mu.Lock()
		pc.draining = true
		idle := len(pc.pending) == 0 && pc.err == nil
		pc.mu.Unlock()
		if idle {
			pc.fail(errConnDraining, false)
		}
	}
}

// pipeFor returns a pipelined connection for rep: the least-loaded live one
// if it has headroom, a fresh dial while the replica is under its connection
// cap, otherwise the least-loaded one shared beyond its depth — total
// concurrency is already bounded by the caller's tag lease, so sharing at
// overload cannot run away.
func (p *Pool) pipeFor(ctx context.Context, rep *replica, timeout time.Duration) (*pipeConn, error) {
	s := &rep.pipes
	s.mu.Lock()
	for {
		select {
		case <-p.done:
			s.mu.Unlock()
			return nil, ErrPoolClosed
		default:
		}
		if s.draining {
			s.mu.Unlock()
			return nil, errConnDraining
		}
		var best *pipeConn
		bestLoad := 0
		for _, pc := range s.conns {
			pc.mu.Lock()
			dead, load := pc.err != nil, len(pc.pending)
			pc.mu.Unlock()
			if dead {
				continue
			}
			if best == nil || load < bestLoad {
				best, bestLoad = pc, load
			}
		}
		if best != nil && bestLoad < p.depth {
			s.mu.Unlock()
			return best, nil
		}
		if len(s.conns)+s.creating < p.max {
			s.creating++
			s.mu.Unlock()
			pc, _, err := p.dialPipe(ctx, rep, timeout)
			s.mu.Lock()
			s.creating--
			s.cond.Broadcast()
			s.mu.Unlock()
			return pc, err
		}
		if best != nil {
			s.mu.Unlock()
			return best, nil
		}
		// No live connection and the cap is accounted for by dead conns not
		// yet forgotten or dials in flight — both broadcast on completion.
		// The dial handshake carries the exchange deadline, so this wait is
		// bounded by dial completion.
		s.cond.Wait()
	}
}

// pipeHandshake reports what the setup exchange on a freshly negotiated
// connection produced, so a caller whose own request was the Hello can use
// the handshake's reply directly instead of paying a second round trip.
type pipeHandshake struct {
	reply protocol.Message
	wrote int
	read  int
	ship  time.Duration
	wait  time.Duration
}

// dialPipe dials rep, performs the Hello feature negotiation in seed framing,
// and — when the peer grants pipelining — upgrades the connection to tagged
// frames and registers it with the replica. When the peer declines, the
// handshook connection is parked on the legacy idle list, the replica is
// marked wireLegacy, and errWireLegacy tells the caller to fall through to
// the seed exclusive-connection path.
func (p *Pool) dialPipe(ctx context.Context, rep *replica, timeout time.Duration) (*pipeConn, *pipeHandshake, error) {
	conn, err := p.dialer.Dial(rep.endpoint)
	if err != nil {
		return nil, nil, fmt.Errorf("core: dial %s: %w", rep.endpoint, err)
	}

	// The handshake honours the same effective deadline an exchange would:
	// the earlier of the per-call timeout and the context's own deadline,
	// with cancellation snapping the deadline into the past.
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		_ = conn.SetDeadline(deadline)
	}
	if ctx.Done() != nil {
		snapped := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			defer close(snapped)
			_ = conn.SetDeadline(time.Now().Add(-time.Second))
		})
		defer func() {
			if !stop() {
				// The snap ran (or is running) while the handshake completed:
				// wait for it and undo it, or the freshly negotiated
				// connection would start life with a poisoned deadline.
				<-snapped
				_ = conn.SetDeadline(time.Time{})
			}
		}()
	}

	start := time.Now()
	wrote, err := protocol.WriteMessage(conn, &protocol.Hello{Features: p.features})
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: %w", rep.endpoint, err)
	}
	written := time.Now()
	p.metrics.wireBytesOut.Add(uint64(wrote))
	reply, read, err := protocol.ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: %w", rep.endpoint, err)
	}
	_ = conn.SetDeadline(time.Time{})
	p.metrics.wireBytesIn.Add(uint64(read))
	p.metrics.wireRoundTrips.Inc()
	hr, ok := reply.(*protocol.HelloReply)
	if !ok {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: unexpected %v reply", rep.endpoint, reply.Type())
	}
	if extra := hr.Features &^ p.features; extra != 0 {
		conn.Close()
		return nil, nil, &protocol.FeatureMismatchError{Requested: p.features, Granted: hr.Features}
	}
	hs := &pipeHandshake{
		reply: reply,
		wrote: wrote,
		read:  read,
		ship:  written.Sub(start),
		wait:  time.Since(written),
	}

	if !hr.Features.Has(protocol.FeaturePipelining) {
		// Peer speaks the seed framing. Park the handshook connection for
		// the legacy lease path and remember the negotiation outcome.
		rep.wire.Store(wireLegacy)
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return nil, hs, ErrPoolClosed
		}
		p.idle[rep.endpoint] = append(p.idle[rep.endpoint], conn)
		p.metrics.connsIdle.Inc()
		p.mu.Unlock()
		return nil, hs, errWireLegacy
	}

	rep.wire.Store(wirePipelined)
	pc := newPipeConn(p, rep, conn, hr.Features)
	s := &rep.pipes
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		pc.fail(errConnDraining, false)
		return nil, hs, errConnDraining
	}
	s.conns = append(s.conns, pc)
	s.cond.Broadcast()
	s.mu.Unlock()
	return pc, hs, nil
}

// hsCall converts a handshake's measurements into the Call record for a
// setup Hello that was answered by the handshake itself.
func hsCall(name, endpoint string, phase Phase, req protocol.Message, hs *pipeHandshake) Call {
	return Call{
		Librarian: name, Replica: endpoint, Phase: phase, ReqType: req.Type(),
		ReqBytes: hs.wrote, RespBytes: hs.read, Ship: hs.ship, Wait: hs.wait,
	}
}

// attemptPiped is attempt() over the pipelined path: lease a tag instead of
// a connection, multiplex the exchange onto one of the replica's negotiated
// connections, and report health identically. It returns errWireLegacy when
// the replica speaks (or turns out to speak) only the seed framing, in which
// case attempt falls through to the legacy exclusive-connection path.
func (e *exec) attemptPiped(ctx context.Context, name string, phase Phase, req protocol.Message, avoid string, tryOnly bool, onLease func(endpoint string)) ([]Call, protocol.Message, string, error) {
	p := e.pool
	rt, ok := p.routers[name]
	if !ok {
		return nil, nil, "", fmt.Errorf("core: unknown librarian %q", name)
	}
	rep := rt.pick(avoid)
	if rep == nil {
		return nil, nil, "", fmt.Errorf("core: librarian %q has no replicas", name)
	}
	if rep.wire.Load() == wireLegacy {
		return nil, nil, "", errWireLegacy
	}
	endpoint := rep.endpoint

	// Lease a tag — the pipelined unit of concurrency. Capacity is
	// MaxConnsPerLibrarian × PipelineDepth, the capacity multiplication
	// this path exists for.
	if tryOnly {
		select {
		case rep.tags <- struct{}{}:
		default:
			return nil, nil, "", errNoFreeSlot
		}
	} else {
		waitStart := time.Now()
		select {
		case rep.tags <- struct{}{}:
		case <-p.done:
			return nil, nil, "", ErrPoolClosed
		case <-ctx.Done():
			return nil, nil, "", ctx.Err()
		}
		p.metrics.acquireWait.ObserveDuration(time.Since(waitStart))
	}
	defer func() { <-rep.tags }()
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	if onLease != nil {
		onLease(endpoint)
	}

	var pc *pipeConn
	var hs *pipeHandshake
	var err error
	if rep.wire.Load() == wirePipelined {
		pc, err = p.pipeFor(ctx, rep, e.policy.timeout)
	} else {
		// First contact: dial and negotiate. The handshake Hello doubles as
		// the exchange when the caller's own request is a Hello, so setup
		// costs one round trip per connection, exactly like the seed.
		pc, hs, err = p.dialPipe(ctx, rep, e.policy.timeout)
	}
	if errors.Is(err, errWireLegacy) {
		if _, isHello := req.(*protocol.Hello); isHello && hs != nil {
			call := hsCall(name, endpoint, phase, req, hs)
			rt.reportSuccess(rep, call.Ship+call.Wait)
			return []Call{call}, hs.reply, endpoint, nil
		}
		return nil, nil, endpoint, errWireLegacy
	}
	if err != nil {
		// A drain is administrative (the replica was just removed), not a
		// health signal.
		if ctx.Err() == nil && !errors.Is(err, ErrPoolClosed) && !errors.Is(err, errConnDraining) {
			rt.reportFailure(rep)
		}
		return nil, nil, endpoint, err
	}
	if hs != nil {
		if _, isHello := req.(*protocol.Hello); isHello {
			call := hsCall(name, endpoint, phase, req, hs)
			rt.reportSuccess(rep, call.Ship+call.Wait)
			return []Call{call}, hs.reply, endpoint, nil
		}
	}

	call, reply, err := pc.exchange(ctx, e.policy.timeout, name, phase, req)
	if err != nil {
		var remote *protocol.RemoteError
		if errors.As(err, &remote) {
			// The peer answered; the transport is healthy and its latency is
			// a real observation.
			rt.reportSuccess(rep, call.Ship+call.Wait)
		} else if ctx.Err() == nil && !errors.Is(err, ErrPoolClosed) && !errors.Is(err, errConnDraining) {
			rt.reportFailure(rep)
		}
		return []Call{call}, nil, endpoint, err
	}
	rt.reportSuccess(rep, call.Ship+call.Wait)
	return []Call{call}, reply, endpoint, nil
}
