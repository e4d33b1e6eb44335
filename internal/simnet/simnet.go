// Package simnet provides in-process network links with configurable
// latency and bandwidth, so the paper's four deployment configurations
// (mono-disk, multi-disk, LAN, WAN) can be exercised on one machine.
//
// A Link wraps the two ends of a net.Pipe; writes are delivered to the
// reader only after the simulated propagation (latency) and transmission
// (bytes/bandwidth) delay has elapsed. Delays can be scaled down uniformly
// (TimeScale) so that a WAN experiment with second-scale round trips runs in
// milliseconds while preserving relative behaviour.
package simnet

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"
)

// LinkConfig describes one direction of a simulated link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth in bytes per second; zero means unlimited.
	Bandwidth float64
	// TimeScale divides every delay; zero or one means real time. A scale
	// of 100 runs a 1-second delay in 10 ms.
	TimeScale float64
}

func (c LinkConfig) delayFor(bytes int) time.Duration {
	d := c.Latency
	if c.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / c.Bandwidth * float64(time.Second))
	}
	if c.TimeScale > 1 {
		d = time.Duration(float64(d) / c.TimeScale)
	}
	return d
}

// Pipe returns the two ends of a bidirectional link with the given
// symmetric configuration. Both ends satisfy net.Conn.
func Pipe(cfg LinkConfig) (client, server net.Conn) {
	c, s := net.Pipe()
	return newConn(c, cfg), newConn(s, cfg)
}

// conn delays each Write by the link's latency and transmission time before
// handing the bytes to the underlying pipe. net.Pipe is synchronous, so the
// delay-then-write discipline makes delivery time behave like a
// store-and-forward network hop. The delay wait honours write deadlines and
// Close, so a deadline set on the connection can interrupt a slow simulated
// transmission with os.ErrDeadlineExceeded.
type conn struct {
	net.Conn
	cfg LinkConfig

	mu sync.Mutex // serialises writes, modelling one physical link

	gate *delayGate
}

func newConn(c net.Conn, cfg LinkConfig) *conn {
	return &conn{Conn: c, cfg: cfg, gate: newDelayGate()}
}

// Write implements net.Conn with simulated delay.
func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.cfg.delayFor(len(p)); d > 0 {
		if err := c.gate.wait(d); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

// SetDeadline implements net.Conn, covering both the simulated transmission
// wait and the underlying pipe.
func (c *conn) SetDeadline(t time.Time) error {
	c.gate.setDeadline(t)
	return c.Conn.SetDeadline(t)
}

// SetWriteDeadline implements net.Conn.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.gate.setDeadline(t)
	return c.Conn.SetWriteDeadline(t)
}

// Close implements net.Conn, waking any write blocked in the delay wait.
func (c *conn) Close() error {
	c.gate.close()
	return c.Conn.Close()
}

// delayGate blocks callers for injected delays while honouring write
// deadlines and Close — the machinery shared by the link-shaping conn and
// the chaos wrapper's per-endpoint latency injection. A gate belongs to one
// connection: setDeadline tracks the connection's write deadline, close
// wakes every waiter with net.ErrClosed.
type delayGate struct {
	mu       sync.Mutex
	deadline time.Time     // current write deadline
	notify   chan struct{} // closed (and replaced) whenever the deadline changes

	closed    chan struct{}
	closeOnce sync.Once
}

func newDelayGate() *delayGate {
	return &delayGate{notify: make(chan struct{}), closed: make(chan struct{})}
}

// wait blocks for the delay d, aborting early when the write deadline
// passes or the gate is closed.
func (g *delayGate) wait(d time.Duration) error {
	delay := time.NewTimer(d)
	defer delay.Stop()
	for {
		g.mu.Lock()
		deadline := g.deadline
		notify := g.notify
		g.mu.Unlock()

		var deadlineCh <-chan time.Time
		var deadlineTimer *time.Timer
		if !deadline.IsZero() {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return os.ErrDeadlineExceeded
			}
			deadlineTimer = time.NewTimer(remaining)
			deadlineCh = deadlineTimer.C
		}
		select {
		case <-delay.C:
			if deadlineTimer != nil {
				deadlineTimer.Stop()
			}
			return nil
		case <-deadlineCh:
			return os.ErrDeadlineExceeded
		case <-notify:
			// Deadline changed mid-wait: recompute and keep waiting.
			if deadlineTimer != nil {
				deadlineTimer.Stop()
			}
		case <-g.closed:
			if deadlineTimer != nil {
				deadlineTimer.Stop()
			}
			return net.ErrClosed
		}
	}
}

func (g *delayGate) setDeadline(t time.Time) {
	g.mu.Lock()
	g.deadline = t
	close(g.notify)
	g.notify = make(chan struct{})
	g.mu.Unlock()
}

func (g *delayGate) close() {
	g.closeOnce.Do(func() { close(g.closed) })
}

// Dialer hands out client connections to named peers, hiding whether the
// peer is in-process (simulated) or remote (TCP). The receptionist uses a
// Dialer so the same code drives every experiment configuration.
type Dialer interface {
	Dial(name string) (net.Conn, error)
}

// TCPDialer dials real TCP addresses: name -> host:port.
type TCPDialer map[string]string

// Dial implements Dialer.
func (d TCPDialer) Dial(name string) (net.Conn, error) {
	addr, ok := d[name]
	if !ok {
		return nil, fmt.Errorf("simnet: unknown peer %q", name)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("simnet: dial %q (%s): %w", name, addr, err)
	}
	return conn, nil
}
