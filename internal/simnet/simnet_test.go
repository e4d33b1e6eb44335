package simnet

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

func TestPipeDelivers(t *testing.T) {
	client, server := Pipe(LinkConfig{})
	defer client.Close()
	defer server.Close()
	go func() {
		if _, err := client.Write([]byte("ping")); err != nil {
			t.Error(err)
		}
	}()
	buf := make([]byte, 4)
	if _, err := server.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Fatalf("got %q", buf)
	}
}

func TestLatencyApplied(t *testing.T) {
	const latency = 30 * time.Millisecond
	client, server := Pipe(LinkConfig{Latency: latency})
	defer client.Close()
	defer server.Close()

	start := time.Now()
	go func() {
		_, _ = client.Write([]byte("x"))
	}()
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < latency {
		t.Fatalf("delivered in %v, want >= %v", elapsed, latency)
	}
}

func TestBandwidthApplied(t *testing.T) {
	// 1 KB at 10 KB/s should take ~100 ms.
	client, server := Pipe(LinkConfig{Bandwidth: 10 * 1024})
	defer client.Close()
	defer server.Close()

	payload := make([]byte, 1024)
	start := time.Now()
	go func() {
		_, _ = client.Write(payload)
	}()
	buf := make([]byte, len(payload))
	n := 0
	for n < len(buf) {
		m, err := server.Read(buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("1KB at 10KB/s delivered in %v, want ~100ms", elapsed)
	}
}

func TestTimeScale(t *testing.T) {
	// A 1-second latency scaled 100x must deliver in roughly 10 ms.
	client, server := Pipe(LinkConfig{Latency: time.Second, TimeScale: 100})
	defer client.Close()
	defer server.Close()

	start := time.Now()
	go func() {
		_, _ = client.Write([]byte("x"))
	}()
	buf := make([]byte, 1)
	if _, err := server.Read(buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 5*time.Millisecond || elapsed > 500*time.Millisecond {
		t.Fatalf("scaled delivery took %v, want ≈10ms", elapsed)
	}
}

func TestDelayForComputation(t *testing.T) {
	cfg := LinkConfig{Latency: 100 * time.Millisecond, Bandwidth: 1000}
	// 500 bytes at 1000 B/s = 500ms transmission + 100ms latency.
	if d := cfg.delayFor(500); d != 600*time.Millisecond {
		t.Fatalf("delayFor = %v, want 600ms", d)
	}
	cfg.TimeScale = 10
	if d := cfg.delayFor(500); d != 60*time.Millisecond {
		t.Fatalf("scaled delayFor = %v, want 60ms", d)
	}
	unlimited := LinkConfig{}
	if d := unlimited.delayFor(1 << 20); d != 0 {
		t.Fatalf("unlimited link delay = %v", d)
	}
}

func TestWriteDeadlineInterruptsDelay(t *testing.T) {
	// A 10-second transmission delay must not pin Write past its deadline.
	client, server := Pipe(LinkConfig{Latency: 10 * time.Second})
	defer client.Close()
	defer server.Close()

	if err := client.SetDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := client.Write([]byte("x"))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("write over 10s link with 30ms deadline: want error")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want os.ErrDeadlineExceeded, got %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to interrupt the delay", elapsed)
	}
	// Clearing the deadline restores normal writes.
	if err := client.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineSetMidDelayInterrupts(t *testing.T) {
	client, server := Pipe(LinkConfig{Latency: 10 * time.Second})
	defer client.Close()
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Write enter its delay wait
	if err := client.SetWriteDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("want os.ErrDeadlineExceeded, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deadline set mid-delay did not interrupt the write")
	}
}

func TestCloseInterruptsDelay(t *testing.T) {
	client, server := Pipe(LinkConfig{Latency: 10 * time.Second})
	defer server.Close()

	done := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("x"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write on closed delayed conn: want error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not interrupt the delayed write")
	}
}
