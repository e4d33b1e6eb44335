package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The chaos wall: every test here kills or revives replicas while
// queries are in flight, and asserts the fleet absorbs it — zero degraded
// results, zero query errors, no leaked pooled connections. All scenarios
// are deterministic in outcome (kill points are guarded by completion
// counters, not wall-clock sleeps) and run clean under -race.

// runChaosStress drives nworkers concurrent query loops of perWorker
// queries each, invoking disrupt exactly once after half the total queries
// have completed. It fails the test on any query error or degraded result.
func runChaosStress(t *testing.T, f *replicaFixture, mode Mode, opts Options, nworkers, perWorker int, disrupt func()) {
	t.Helper()
	queries := []string{"alpha", "federal finance", "wallstreet widget", "alpha aurora", "fiscal wholesale"}
	var done atomic.Int64
	var disruptOnce sync.Once
	threshold := int64(nworkers*perWorker) / 2
	var wg sync.WaitGroup
	errc := make(chan error, nworkers)
	for w := 0; w < nworkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := f.pool.Query(mode, q, 10, opts)
				if err != nil {
					errc <- fmt.Errorf("worker %d query %d (%s %q): %w", w, i, mode, q, err)
					return
				}
				if res.Trace.Degraded {
					errc <- fmt.Errorf("worker %d query %d (%s %q): degraded result with a live sibling replica", w, i, mode, q)
					return
				}
				if done.Add(1) == threshold {
					disruptOnce.Do(disrupt)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
}

// Killing one replica of every librarian mid-stress must be invisible to
// callers in every mode: in-flight exchanges on the severed connections
// retry on the surviving sibling, the router ejects the dead endpoint, and
// no query errors, degrades, or leaks a connection.
func TestChaosKillReplicaMidStress(t *testing.T) {
	for _, mode := range []Mode{ModeCN, ModeCV, ModeCI} {
		t.Run(mode.String(), func(t *testing.T) {
			corpus, order := smallCorpus(t)
			f := newReplicaFixture(t, corpus, order, 2, Config{})
			if _, err := f.pool.SetupVocabulary(); err != nil {
				t.Fatal(err)
			}
			if mode == ModeCI {
				if _, err := f.pool.SetupCentralIndexRemote(10); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{Retries: 2, Backoff: time.Millisecond}
			runChaosStress(t, f, mode, opts, 8, 25, func() {
				for _, name := range f.order {
					f.chaos.Kill(name + "#1")
				}
			})
			assertNoLeakedConns(t, f.pool)
			// The survivors carried the second half of the stress alone.
			for _, name := range f.order {
				for _, r := range f.pool.routers[name].set {
					if n := r.inflight.Load(); n != 0 {
						t.Fatalf("replica %q reports %d in flight after drain", r.endpoint, n)
					}
				}
			}
		})
	}
}

// Killing a replica mid-stress with hedging enabled: hedges racing onto the
// dead endpoint fail, their primaries still answer, and nothing degrades.
func TestChaosKillReplicaMidStressHedged(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 2, Config{})
	// Warm latency trackers so hedging is armed before the kill.
	for i := 0; i < 10; i++ {
		if _, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 5, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Retries: 2, Backoff: time.Millisecond, HedgeAfter: 0.5}
	runChaosStress(t, f, ModeCN, opts, 8, 25, func() {
		for _, name := range f.order {
			f.chaos.Kill(name + "#0")
		}
	})
	assertNoLeakedConns(t, f.pool)
}

// A replica killed and revived must come back: the router ejects it on
// consecutive failures, probes it after the window, and readmits it once a
// probe exchange succeeds — traffic returns without operator action.
func TestChaosKillReviveReadmits(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 2, Config{})
	f.pool.routers[order[0]].probeAfter = 10 * time.Millisecond
	victim := order[0] + "#1"
	// Eject: kill the endpoint, then drive enough traffic that AP's router
	// sees replicaEjectAfter consecutive failures (retries keep the queries
	// themselves green).
	f.chaos.Kill(victim)
	opts := Options{Retries: 2, Backoff: time.Millisecond}
	for i := 0; i < 30; i++ {
		if _, err := f.pool.Query(ModeCN, "alpha", 5, opts); err != nil {
			t.Fatal(err)
		}
	}
	if v := f.pool.Metrics().replicaEjections.Value(); v == 0 {
		t.Fatal("killed replica was never ejected")
	}
	// Revive and wait out the probe window; the next probes readmit it.
	f.chaos.Revive(victim)
	deadline := time.Now().Add(2 * time.Second)
	served := false
	for !served && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		for i := 0; i < 20 && !served; i++ {
			res, err := f.pool.Query(ModeCN, "alpha", 5, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Trace.Calls {
				if c.Replica == victim {
					served = true
				}
			}
		}
	}
	if !served {
		t.Fatal("revived replica never served traffic again")
	}
	if v := f.pool.Metrics().replicaReadmissions.Value(); v == 0 {
		t.Fatal("readmission metric never incremented")
	}
	assertNoLeakedConns(t, f.pool)
}

// Killing every replica of a librarian is a real outage: with AllowPartial
// the query degrades instead of failing, and reviving brings full answers
// back. (This is the boundary of what replication can absorb.)
func TestChaosTotalOutageDegradesWithPartial(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 2, Config{})
	f.chaos.Kill("AP#0")
	f.chaos.Kill("AP#1")
	opts := Options{Retries: 1, Backoff: time.Millisecond, AllowPartial: true}
	res, err := f.pool.Query(ModeCN, "alpha federal", 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.Degraded {
		t.Fatal("total outage of one librarian should degrade the query")
	}
	if len(res.Trace.Failures) == 0 {
		t.Fatal("total outage should be recorded in Trace.Failures")
	}
	f.chaos.Revive("AP#0")
	f.chaos.Revive("AP#1")
	// Ejection may have benched both endpoints; fail-open routing plus
	// retries must recover without waiting for probe windows.
	res, err = f.pool.Query(ModeCN, "alpha federal", 10, Options{Retries: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Degraded {
		t.Fatal("query still degraded after both replicas revived")
	}
	assertNoLeakedConns(t, f.pool)
}
