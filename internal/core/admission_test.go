package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/simnet"
)

func testAdmission(t *testing.T, cfg AdmissionConfig) (*admission, chan struct{}) {
	t.Helper()
	done := make(chan struct{})
	return newAdmission(cfg, done, newMetrics(obs.NewRegistry())), done
}

func TestAdmissionConfigRejected(t *testing.T) {
	pf := newPoolFixture(t, 2)
	for _, bad := range []int{0, -3} {
		_, err := NewPool(pf.dialer, pf.order, Config{
			Analyzer:  testAnalyzer(),
			Admission: &AdmissionConfig{MaxInFlight: bad},
		})
		if err == nil {
			t.Fatalf("MaxInFlight=%d accepted", bad)
		}
	}
}

// TestAdmissionBoundsInFlight is the limit proof at the unit level: 40
// goroutines race acquire, and the observed concurrent-holder maximum never
// exceeds MaxInFlight; everyone either runs or sheds with ErrOverloaded.
func TestAdmissionBoundsInFlight(t *testing.T) {
	adm, _ := testAdmission(t, AdmissionConfig{MaxInFlight: 3, MaxQueue: 2, MaxWait: 100 * time.Millisecond})
	const goroutines = 40
	var cur, peak, admitted, shed atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := adm.acquire(context.Background()); err != nil {
				if !errors.Is(err, ErrOverloaded) {
					errc <- err
					return
				}
				shed.Add(1)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			adm.release()
			admitted.Add(1)
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("%d queries ran concurrently, limit is 3", p)
	}
	if admitted.Load() < 3 {
		t.Fatalf("only %d admitted", admitted.Load())
	}
	if admitted.Load()+shed.Load() != goroutines {
		t.Fatalf("admitted %d + shed %d != %d", admitted.Load(), shed.Load(), goroutines)
	}
}

func TestAdmissionShedsImmediatelyWithoutQueue(t *testing.T) {
	adm, _ := testAdmission(t, AdmissionConfig{MaxInFlight: 1})
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := adm.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full limit with zero queue: got %v, want ErrOverloaded", err)
	}
	adm.release()
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatalf("after release: %v", err)
	}
	adm.release()
}

func TestAdmissionMaxWaitSheds(t *testing.T) {
	adm, _ := testAdmission(t, AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, MaxWait: 20 * time.Millisecond})
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.release()
	start := time.Now()
	err := adm.acquire(context.Background())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued past MaxWait: got %v, want ErrOverloaded", err)
	}
	if waited := time.Since(start); waited < 15*time.Millisecond {
		t.Fatalf("shed after %v, want ≈20ms of queueing first", waited)
	}
}

func TestAdmissionQueuedRequestGetsFreedSlot(t *testing.T) {
	adm, _ := testAdmission(t, AdmissionConfig{MaxInFlight: 1, MaxQueue: 1})
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- adm.acquire(context.Background()) }()
	time.Sleep(5 * time.Millisecond)
	adm.release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued acquire after release: %v", err)
		}
		adm.release()
	case <-time.After(time.Second):
		t.Fatal("queued acquire never got the freed slot")
	}
}

// TestAdmissionDeadlineWhileQueued: a context deadline that expires (or has
// already expired) while queued is load shedding — ErrOverloaded, with the
// context's own error still reachable through the chain.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	adm, _ := testAdmission(t, AdmissionConfig{MaxInFlight: 1, MaxQueue: 1})
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.release()

	// The wait budget collapses to the deadline; whether the internal timer
	// or the context fires first, the result is a shed, never a stuck wait.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	err := adm.acquire(ctx)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline while queued: got %v, want ErrOverloaded", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	err = adm.acquire(expired)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("already-expired deadline: got %v, want ErrOverloaded", err)
	}
}

// TestAdmissionCancelIsNotShed: an explicit cancellation is the caller's
// decision, not overload — the error must be Canceled, not ErrOverloaded.
func TestAdmissionCancelIsNotShed(t *testing.T) {
	adm, _ := testAdmission(t, AdmissionConfig{MaxInFlight: 1, MaxQueue: 1})
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.release()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := adm.acquire(ctx)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("cancelled while queued: got %v, want Canceled and not ErrOverloaded", err)
	}
}

func TestAdmissionPoolCloseUnblocksWaiters(t *testing.T) {
	adm, done := testAdmission(t, AdmissionConfig{MaxInFlight: 1, MaxQueue: 1})
	if err := adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer adm.release()
	got := make(chan error, 1)
	go func() { got <- adm.acquire(context.Background()) }()
	time.Sleep(5 * time.Millisecond)
	close(done)
	select {
	case err := <-got:
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("waiter after Close: got %v, want ErrPoolClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("closing the pool did not unblock the queued waiter")
	}
}

// TestAdmissionShedsUnderLoad drives the whole query path: 8 clients against
// MaxInFlight 1 over latency-shaped links. Admitted queries succeed, the
// rest shed with ErrOverloaded, and — although the pool itself would allow 8
// connections per librarian — no librarian ever sees more than one
// concurrent connection, because at most one query evaluates at a time.
func TestAdmissionShedsUnderLoad(t *testing.T) {
	corpus, order := smallCorpus(t)
	a := testAnalyzer()
	var libs []*librarian.Librarian
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	inner := librarian.NewInProcessDialer(libs, simnet.LinkConfig{Latency: 2 * time.Millisecond})
	counter := newCountingDialer(inner)
	pool, err := NewPool(counter, order, Config{
		Analyzer:             a,
		MaxConnsPerLibrarian: 8,
		Admission:            &AdmissionConfig{MaxInFlight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		pool.Close()
		inner.Wait()
	}()
	if _, err := pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const perClient = 3
	var successes, sheds atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := pool.Query(ModeCV, "alpha federal wallstreet", 10, Options{})
				if err != nil {
					if !errors.Is(err, ErrOverloaded) {
						errc <- err
						return
					}
					sheds.Add(1)
					continue
				}
				if len(res.Answers) == 0 {
					errc <- errConst("admitted query returned nothing")
					return
				}
				successes.Add(1)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if successes.Load() == 0 {
		t.Fatal("no query was admitted under overload")
	}
	if sheds.Load() == 0 {
		t.Fatal("8 clients against MaxInFlight 1 shed nothing")
	}
	if successes.Load()+sheds.Load() != goroutines*perClient {
		t.Fatalf("successes %d + sheds %d != %d attempts", successes.Load(), sheds.Load(), goroutines*perClient)
	}
	// The in-flight limit, not the pool bound, governed librarian-side
	// concurrency.
	for _, name := range order {
		if _, _, maxOpen := counter.stats(name); maxOpen > 1 {
			t.Fatalf("librarian %s saw %d concurrent connections under MaxInFlight 1", name, maxOpen)
		}
	}
}

// TestCacheServesHitsWhileSaturated pins the check order: the cache is
// consulted before admission control, so a repeat query still answers (from
// memory) while every in-flight slot is taken, and a novel query sheds.
func TestCacheServesHitsWhileSaturated(t *testing.T) {
	cf := newCacheFixture(t, Config{
		Cache:     &CacheConfig{},
		Admission: &AdmissionConfig{MaxInFlight: 1},
	})
	if _, err := cf.pool.SetupVocabulary(); err != nil {
		t.Fatal(err)
	}
	const query = "alpha federal"
	if _, err := cf.pool.Query(ModeCV, query, 10, Options{}); err != nil {
		t.Fatal(err)
	}
	// Saturate admission directly (same package): the one slot is now held.
	if err := cf.pool.admission.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer cf.pool.admission.release()

	res, err := cf.pool.Query(ModeCV, query, 10, Options{})
	if err != nil {
		t.Fatalf("cached query under saturation: %v", err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("repeat query was not served from the cache")
	}
	if _, err := cf.pool.Query(ModeCV, "aurora widget", 10, Options{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("novel query under saturation: got %v, want ErrOverloaded", err)
	}
}
