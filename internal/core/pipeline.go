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

// The transport.
//
// Every exchange with a librarian runs on a pipeConn: a connection with a
// write loop that serializes frames and a read loop that hands each reply to
// the exchange waiting for it. Every connection opens with a Hello at
// protocol.Version, and every frame after it carries a u32 exchange tag, so
// one connection multiplexes up to pipelineDepth concurrent exchanges and a
// replica's capacity is MaxConnsPerLibrarian × pipelineDepth without more
// sockets — the paper's cost model charges per network contact, and
// pipelining keeps contacts flat while concurrency grows.
//
// Any deadline expiry — the per-call policy timer or a context deadline —
// kills the whole connection (the peer is presumed stuck; every pending
// exchange errors out and retries redial). A plain cancellation before the
// request was written skips the frame; after the write, the exchange abandons
// its tag and the read loop discards the late reply.

// pipelineDepth bounds concurrent exchanges per connection.
const pipelineDepth = 8

// pipePending is one in-flight exchange on a pipeConn. All fields except done
// and tag are guarded by the owning pipeConn's mu: the write loop stamps them,
// the read loop settles them, and the exchanging goroutine copies them out —
// any of which may race with a timed-out exchanger absent the lock.
type pipePending struct {
	done chan struct{} // closed exactly once when reply/err is set
	tag  uint32        // set once by register

	start     time.Time     // enqueue time; Ship measures from here
	writtenAt time.Time     // zero until the write loop commits to writing the frame
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
	msg  protocol.Message
	pend *pipePending
}

// pipeConn is one connection to one replica. A dedicated write loop
// serializes frames and a dedicated read loop hands each reply to its pending
// exchange by tag; replies for unknown tags (abandoned exchanges) are
// discarded without disturbing the framing.
type pipeConn struct {
	pool *Pool
	rep  *replica
	conn net.Conn

	writeCh chan pipeWrite
	dead    chan struct{} // closed by fail(); loops treat it as shutdown

	mu      sync.Mutex
	pending map[uint32]*pipePending
	nextTag uint32
	err     error // first failure, set by fail()
	busy    bool  // pending > 0; drives in-use/idle gauge accounting
}

func newPipeConn(p *Pool, rep *replica, conn net.Conn) *pipeConn {
	pc := &pipeConn{
		pool:    p,
		rep:     rep,
		conn:    conn,
		writeCh: make(chan pipeWrite, pipelineDepth),
		dead:    make(chan struct{}),
		pending: make(map[uint32]*pipePending),
	}
	p.metrics.connsIdle.Inc()
	go pc.writeLoop()
	go pc.readLoop()
	return pc
}

// syncBusyLocked moves the in-use/idle gauges when the connection crosses the
// 0↔>0 pending boundary: a connection counts as in-use while any exchange is
// in flight on it, idle otherwise. Caller holds pc.mu. After fail() the gauges
// are settled once and for all — a read-loop iteration that raced the failure
// must not flip them again off the cleared pending map.
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

// room reports how many more exchanges the connection should take; zero or
// less means full. ok is false when it has failed and can take none.
func (pc *pipeConn) room() (n int, ok bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pipelineDepth - len(pc.pending), pc.err == nil
}

// register adds pend as a new pending exchange and gives it its tag. It
// reports false when the connection has failed and cannot take it.
func (pc *pipeConn) register(pend *pipePending) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return false
	}
	pc.nextTag++
	pend.tag = pc.nextTag
	pc.pending[pend.tag] = pend
	pc.syncBusyLocked()
	return true
}

// forget abandons an exchange after a plain cancellation. If its request has
// not been written the write loop skips the frame; if it has, the read loop
// discards the late reply by its tag. Either way the stream never
// desynchronizes, the connection stays up, and nothing counts against the
// dirty-connection metric.
func (pc *pipeConn) forget(pend *pipePending) {
	pc.mu.Lock()
	if pc.pending[pend.tag] != pend {
		pc.mu.Unlock()
		return
	}
	pend.abandoned = true
	delete(pc.pending, pend.tag)
	pc.syncBusyLocked()
	pc.mu.Unlock()
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

func (pc *pipeConn) writeLoop() {
	wr := &protocol.Writer{Tagged: true} // frames only; the loop writes them
	for {
		select {
		case w := <-pc.writeCh:
			frame, err := wr.Frame(w.pend.tag, w.msg)
			// Stamp before the write hits the wire: the reply races the
			// stamping otherwise, and a zero writtenAt would turn the
			// measured wait into garbage that poisons the hedge-delay
			// quantile. Ship is therefore the queue-to-wire delay and Wait
			// the write plus round trip — together the exchange's true total.
			// The frame size is stamped here too, or Call.ReqBytes reads 0.
			// The stamp and the abandoned check share one critical section:
			// forget decides by writtenAt whether the frame can still be
			// skipped.
			began := time.Now()
			pc.mu.Lock()
			skip := w.pend.abandoned || pc.err != nil
			if !skip {
				w.pend.writtenAt = began
				w.pend.ship = began.Sub(w.pend.start)
				w.pend.wrote = len(frame)
			}
			pc.mu.Unlock()
			if skip {
				continue
			}
			if err == nil {
				_, err = pc.conn.Write(frame)
			}
			if err != nil {
				pc.fail(fmt.Errorf("core: write %s: %w", pc.rep.endpoint, err), !pc.pool.isClosed())
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
			pc.fail(fmt.Errorf("core: read %s: %w", pc.rep.endpoint, err), busy && !pc.pool.isClosed())
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
		pc.mu.Unlock()
	}
}

// exchange runs one request/reply, already registered as pend, on the
// connection under the caller's deadline policy: a policy-timer or
// context-deadline expiry kills the whole connection (the peer is presumed
// stuck and retries must redial), while a plain cancellation abandons only
// this exchange (see forget).
func (pc *pipeConn) exchange(ctx context.Context, timeout time.Duration, name string, phase Phase, req protocol.Message, pend *pipePending) (Call, protocol.Message, error) {
	call := Call{Librarian: name, Replica: pc.rep.endpoint, Phase: phase, ReqType: req.Type()}
	pend.start = time.Now() // the write loop reads it only after the send below

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}

	select {
	case pc.writeCh <- pipeWrite{msg: req, pend: pend}:
	case <-pc.dead:
		pc.mu.Lock()
		err := pc.err
		pc.mu.Unlock()
		return call, nil, err
	case <-ctx.Done():
		pc.forget(pend)
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
		pc.forget(pend)
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
	reply, err := classifyReply(&call, reply)
	return call, reply, err
}

// pipeSet is a replica's collection of connections.
type pipeSet struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled when a pipeFor waiter should look again
	conns    []*pipeConn
	creating int
}

func (s *pipeSet) init() { s.cond = sync.NewCond(&s.mu) }

// wake makes every pipeFor waiter look again. It takes the lock so that a
// waiter between its scan and its Wait cannot miss the change.
func (s *pipeSet) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

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

// pipeFor registers a new pending exchange on one of rep's connections and
// returns both: on the live connection with the most room if any has some, on
// a fresh dial while the replica is under its connection cap (hs is then what
// the dial's Hello produced), otherwise on the least-loaded connection,
// shared beyond its depth — total concurrency is already bounded by the
// caller's tag lease, so sharing at overload cannot run away.
func (p *Pool) pipeFor(ctx context.Context, rep *replica, timeout time.Duration) (pc *pipeConn, pend *pipePending, hs *pipeHandshake, err error) {
	pend = &pipePending{done: make(chan struct{})}
	s := &rep.pipes
	s.mu.Lock()
	for {
		if p.isClosed() {
			s.mu.Unlock()
			return nil, nil, nil, ErrPoolClosed
		}
		var best *pipeConn
		bestRoom := 0
		for _, c := range s.conns {
			if room, ok := c.room(); ok && (best == nil || room > bestRoom) {
				best, bestRoom = c, room
			}
		}
		atCap := len(s.conns)+s.creating >= p.max
		if best != nil && (bestRoom > 0 || atCap) {
			if best.register(pend) {
				s.mu.Unlock()
				return best, pend, nil, nil
			}
			continue // it failed or filled since the scan: look again
		}
		if !atCap {
			s.creating++
			s.mu.Unlock()
			pc, hs, err = p.dialPipe(ctx, rep, timeout, pend)
			s.mu.Lock()
			s.creating--
			s.cond.Broadcast()
			s.mu.Unlock()
			return pc, pend, hs, err
		}
		// Nothing can take the exchange and the cap is accounted for: by dead
		// connections not yet forgotten, or by dials in flight (bounded by the
		// exchange deadline their handshake carries). Each of those ends in a
		// wake; so does the caller giving up.
		if err := ctx.Err(); err != nil {
			s.mu.Unlock()
			return nil, nil, nil, err
		}
		stop := context.AfterFunc(ctx, s.wake)
		s.cond.Wait()
		stop()
	}
}

// pipeHandshake reports what the Hello on a freshly dialled connection
// produced, so a caller whose own request was the Hello can use the
// handshake's reply directly instead of paying a second round trip.
type pipeHandshake struct {
	reply *protocol.HelloReply
	wrote int
	read  int
	ship  time.Duration
	wait  time.Duration
}

// dialPipe dials rep, runs the Hello in untagged framing, registers pend on
// the new, tagged connection and adds it to the replica's set.
func (p *Pool) dialPipe(ctx context.Context, rep *replica, timeout time.Duration, pend *pipePending) (*pipeConn, *pipeHandshake, error) {
	conn, err := p.dialer.Dial(rep.endpoint)
	if err != nil {
		return nil, nil, fmt.Errorf("core: dial %s: %w", rep.endpoint, err)
	}
	hs, err := p.hello(ctx, conn, timeout)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("core: handshake %s: %w", rep.endpoint, err)
	}
	pc := newPipeConn(p, rep, conn)
	pc.register(pend) // before anyone else can see the connection
	s := &rep.pipes
	s.mu.Lock()
	// Close flags first and collects s.conns second, so a connection it did
	// not collect sees the flag here.
	closed := p.isClosed()
	if !closed {
		s.conns = append(s.conns, pc)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if closed {
		pc.fail(ErrPoolClosed, false)
		return nil, hs, ErrPoolClosed
	}
	return pc, hs, nil
}

// hello runs the Hello, in untagged framing, on a freshly dialled connection
// and fails with protocol.ErrProtocolVersion when the peer answers at another
// version.
func (p *Pool) hello(ctx context.Context, conn net.Conn, timeout time.Duration) (*pipeHandshake, error) {
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
				// wait for it and undo it, or the fresh connection would
				// start life with a poisoned deadline.
				<-snapped
				_ = conn.SetDeadline(time.Time{})
			}
		}()
	}

	start := time.Now()
	wrote, err := protocol.WriteMessage(conn, &protocol.Hello{Version: protocol.Version})
	if err != nil {
		return nil, err
	}
	written := time.Now()
	p.metrics.wireBytesOut.Add(uint64(wrote))
	reply, read, err := protocol.ReadMessage(conn)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	p.metrics.wireBytesIn.Add(uint64(read))
	p.metrics.wireRoundTrips.Inc()
	hr, ok := reply.(*protocol.HelloReply)
	if !ok {
		return nil, fmt.Errorf("unexpected %v reply", reply.Type())
	}
	if hr.Version != protocol.Version {
		return nil, fmt.Errorf("%w: peer at %d, this build at %d", protocol.ErrProtocolVersion, hr.Version, protocol.Version)
	}
	return &pipeHandshake{
		reply: hr,
		wrote: wrote,
		read:  read,
		ship:  written.Sub(start),
		wait:  time.Since(written),
	}, nil
}
