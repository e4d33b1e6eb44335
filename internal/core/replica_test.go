package core

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"teraphim/internal/librarian"
	"teraphim/internal/obs"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
)

// newReplicaFixture builds a fleet where each librarian in order is served
// by nreplicas endpoints named "<name>#<i>", all backed by one shared
// Librarian instance (concurrency-safe, identical subcollection by
// construction), wired through a simnet.Chaos wrapper so tests can kill,
// revive and shape individual replicas deterministically.
type replicaFixture struct {
	pool     *Pool
	chaos    *simnet.Chaos
	dialer   *librarian.InProcessDialer
	order    []string
	replicas map[string][]string
}

func newReplicaFixture(t testing.TB, corpus map[string][]store.Document, order []string, nreplicas int, cfg Config) *replicaFixture {
	t.Helper()
	a := testAnalyzer()
	dialer := librarian.NewInProcessDialer(nil, simnet.LinkConfig{})
	replicas := make(map[string][]string, len(order))
	for _, name := range order {
		lib, err := librarian.Build(name, corpus[name], librarian.BuildOptions{Analyzer: a})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nreplicas; i++ {
			ep := fmt.Sprintf("%s#%d", name, i)
			dialer.AddEndpoint(ep, lib, simnet.LinkConfig{})
			replicas[name] = append(replicas[name], ep)
		}
	}
	chaos := simnet.NewChaos(dialer)
	cfg.Analyzer = a
	cfg.Replicas = replicas
	pool, err := NewPool(chaos, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		pool.Close()
		dialer.Wait()
	})
	return &replicaFixture{pool: pool, chaos: chaos, dialer: dialer, order: order, replicas: replicas}
}

// assertNoLeakedConns verifies every lease was returned: in-use gauge at
// zero.
func assertNoLeakedConns(t *testing.T, p *Pool) {
	t.Helper()
	if v := p.metrics.connsInUse.Value(); v != 0 {
		t.Fatalf("conns_in_use gauge = %d after drain, want 0", v)
	}
}

func answersEqual(a, b []Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Librarian != b[i].Librarian || a[i].LocalDoc != b[i].LocalDoc ||
			a[i].Score != b[i].Score || a[i].Title != b[i].Title || a[i].Text != b[i].Text {
			return false
		}
	}
	return true
}

// --- Hedge behaviour --------------------------------------------------------

// With one replica shaped slow, hedged queries must route around the slow
// exchange: hedges launch, hedges win, nothing is recorded as a failure or
// a retry, and results stay correct.
func TestHedgeRacesSlowReplica(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 2, Config{})
	// Warm the latency trackers on a fast fleet.
	for i := 0; i < 20; i++ {
		if _, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 5, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Shape replica #0 of every librarian slow: 30ms per write dwarfs the
	// warm sub-millisecond latency quantile.
	for _, name := range f.order {
		f.chaos.SetDelay(name+"#0", 30*time.Millisecond)
	}
	var launched, won int
	for i := 0; i < 20; i++ {
		res, err := f.pool.Query(ModeCN, "alpha federal wallstreet", 5, Options{HedgeAfter: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		launched += res.Trace.Hedges
		won += res.Trace.HedgeWins
		if n := res.Trace.RetryAttempts(); n != 0 {
			t.Fatalf("hedges must not count as retries, got %d", n)
		}
		if len(res.Trace.Failures) != 0 {
			t.Fatalf("hedge race must not record failures: %+v", res.Trace.Failures)
		}
		hedgeCalls := 0
		for _, c := range res.Trace.Calls {
			if c.Hedge {
				hedgeCalls++
				if c.Replica == "" {
					t.Fatal("hedge call without replica endpoint")
				}
			}
		}
		if res.Trace.Hedges > 0 && hedgeCalls == 0 {
			t.Fatal("Trace.Hedges > 0 but no call carries the Hedge flag")
		}
	}
	if launched == 0 {
		t.Fatal("slow replica never triggered a hedge")
	}
	if won == 0 {
		t.Fatal("no hedge ever won against a 30ms-slower primary")
	}
	m := f.pool.Metrics()
	if v := m.hedgeLaunched.Value(); v < uint64(launched) {
		t.Fatalf("teraphim_hedge_launched_total = %d, trace total %d", v, launched)
	}
	if v := m.hedgeWon.Value(); v < uint64(won) {
		t.Fatalf("teraphim_hedge_won_total = %d, trace total %d", v, won)
	}
	assertNoLeakedConns(t, f.pool)
}

// --- Replica set validation -------------------------------------------------

// dialRefused fails the test on any dial: NewPool must reject a bad
// configuration before it contacts a librarian.
type dialRefused struct{ t *testing.T }

func (d dialRefused) Dial(name string) (net.Conn, error) {
	d.t.Errorf("NewPool dialled %q for a configuration it must reject", name)
	return nil, errors.New("dial refused")
}

// TestNewPoolValidation: every invalid Config fails NewPool before it dials
// a librarian or registers a metric family on the caller's registry.
func TestNewPoolValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		libs []string
		cfg  Config
		want string
	}{
		{"no librarians", nil, Config{}, "no librarians"},
		{"duplicate librarian", []string{"AP", "FR", "AP"}, Config{}, `duplicate librarian "AP"`},
		{"endpoint serves two librarians", []string{"AP", "FR"},
			Config{Replicas: map[string][]string{"AP": {"AP#0", "FR"}}}, `endpoint "FR" serves both "AP" and "FR"`},
		{"replicas name an unknown librarian", []string{"AP", "FR"},
			Config{Replicas: map[string][]string{"WSJ": {"WSJ#0"}}}, `unknown librarian "WSJ"`},
		{"admission admits nothing", []string{"AP"}, Config{Admission: &AdmissionConfig{}}, "MaxInFlight must be positive"},
		{"admission admits less than nothing", []string{"AP"}, Config{Admission: &AdmissionConfig{MaxInFlight: -2}}, "MaxInFlight must be positive"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tc.cfg.Metrics = reg
			p, err := NewPool(dialRefused{t}, tc.libs, tc.cfg)
			if err == nil {
				p.Close()
				t.Fatal("NewPool accepted the configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("NewPool error %q, want it to contain %q", err, tc.want)
			}
			var page strings.Builder
			if err := reg.WritePrometheus(&page); err != nil {
				t.Fatal(err)
			}
			if page.Len() != 0 {
				t.Fatalf("a rejected NewPool registered metrics:\n%s", page.String())
			}
		})
	}
}

// --- Router property tests (seeded PRNG, fake clock, no wall-time) ----------

func newTestRouter(t *testing.T, clock *time.Time, endpoints ...string) *router {
	t.Helper()
	rt := newRouter("lib", endpoints, 4, newMetrics(obs.NewRegistry()), 7)
	rt.now = func() time.Time { return *clock }
	return rt
}

func routerReplica(t *testing.T, rt *router, endpoint string) *replica {
	t.Helper()
	for _, r := range rt.set {
		if r.endpoint == endpoint {
			return r
		}
	}
	t.Fatalf("no replica %q", endpoint)
	return nil
}

// With at least one healthy replica, power-of-two-choices must never select
// an ejected one.
func TestRouterNeverSelectsEjectedReplica(t *testing.T) {
	clock := time.Unix(1000, 0)
	rt := newTestRouter(t, &clock, "e0", "e1", "e2", "e3")
	bad := routerReplica(t, rt, "e2")
	for i := 0; i < 3; i++ {
		rt.reportFailure(bad)
	}
	if bad.selectableAt(clock) {
		t.Fatal("replica should be ejected after 3 consecutive failures")
	}
	for i := 0; i < 10000; i++ {
		r := rt.pick("")
		if r == nil {
			t.Fatal("pick returned nil with healthy replicas present")
		}
		if r.endpoint == "e2" {
			t.Fatalf("pick %d selected the ejected replica", i)
		}
	}
}

// Selection over equally-loaded healthy replicas is balanced within 2×.
func TestRouterSelectionBalanced(t *testing.T) {
	clock := time.Unix(1000, 0)
	rt := newTestRouter(t, &clock, "e0", "e1", "e2", "e3")
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[rt.pick("").endpoint]++
	}
	min, max := math.MaxInt, 0
	for _, ep := range []string{"e0", "e1", "e2", "e3"} {
		n := counts[ep]
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 || max > 2*min {
		t.Fatalf("selection unbalanced across equal replicas: %v", counts)
	}
}

// P2C must prefer the less-loaded replica: a replica with strictly more
// exchanges in flight than every sibling is only picked when sampled twice,
// which distinct sampling rules out.
func TestRouterPrefersLeastLoaded(t *testing.T) {
	clock := time.Unix(1000, 0)
	rt := newTestRouter(t, &clock, "e0", "e1", "e2")
	loaded := routerReplica(t, rt, "e1")
	loaded.inflight.Store(8)
	counts := map[string]int{}
	for i := 0; i < 10000; i++ {
		counts[rt.pick("").endpoint]++
	}
	if counts["e1"] > counts["e0"]/10 || counts["e1"] > counts["e2"]/10 {
		t.Fatalf("loaded replica over-selected: %v", counts)
	}
}

// After the ejection window, exactly one pick claims the readmission probe;
// success readmits the replica, failure re-ejects it for another window.
func TestRouterProbeReadmission(t *testing.T) {
	clock := time.Unix(1000, 0)
	rt := newTestRouter(t, &clock, "e0", "e1")
	bad := routerReplica(t, rt, "e1")
	for i := 0; i < 3; i++ {
		rt.reportFailure(bad)
	}
	// Probe window not yet open: e1 is never picked.
	for i := 0; i < 1000; i++ {
		if rt.pick("").endpoint == "e1" {
			t.Fatal("picked ejected replica before its probe window")
		}
	}
	clock = clock.Add(600 * time.Millisecond)
	probes := 0
	for i := 0; i < 1000; i++ {
		if rt.pick("").endpoint == "e1" {
			probes++
		}
	}
	if probes != 1 {
		t.Fatalf("probe window allowed %d concurrent probes, want exactly 1", probes)
	}
	// Failed probe: ejected for another window.
	rt.reportFailure(bad)
	for i := 0; i < 1000; i++ {
		if rt.pick("").endpoint == "e1" {
			t.Fatal("picked replica re-ejected by a failed probe")
		}
	}
	// Next window, probe succeeds: fully readmitted.
	clock = clock.Add(600 * time.Millisecond)
	if got := rt.pick("e0"); got.endpoint != "e1" {
		t.Fatalf("probe pick avoided wrong endpoint: %q", got.endpoint)
	}
	rt.reportSuccess(bad, time.Millisecond)
	picked := false
	for i := 0; i < 100 && !picked; i++ {
		picked = rt.pick("").endpoint == "e1"
	}
	if !picked {
		t.Fatal("readmitted replica never selected again")
	}
	m := rt.metrics
	if v := m.replicaEjections.Value(); v != 2 {
		t.Fatalf("replica_ejections_total = %d, want 2 (initial + failed probe)", v)
	}
	if v := m.replicaReadmissions.Value(); v != 1 {
		t.Fatalf("replica_readmissions_total = %d, want 1", v)
	}
}

// When every replica is ejected, the router fails open rather than refusing
// to route (a wrong guess costs a retry; refusing costs the query).
func TestRouterFailsOpenWhenAllEjected(t *testing.T) {
	clock := time.Unix(1000, 0)
	rt := newTestRouter(t, &clock, "e0", "e1")
	for _, ep := range []string{"e0", "e1"} {
		r := routerReplica(t, rt, ep)
		for i := 0; i < 3; i++ {
			rt.reportFailure(r)
		}
	}
	if r := rt.pick(""); r == nil {
		t.Fatal("router refused to route with all replicas ejected")
	}
}

// --- Latency tracker --------------------------------------------------------

func TestLatencyTrackerQuantiles(t *testing.T) {
	var lt latencyTracker
	if d := lt.quantile(0.9); d != 0 {
		t.Fatalf("quantile before any samples = %v, want 0", d)
	}
	for i := 0; i < 10; i++ {
		lt.observe(time.Millisecond)
	}
	if d := lt.quantile(0.9); d != 0 {
		t.Fatalf("quantile below min samples = %v, want 0", d)
	}
	// 90 fast exchanges at ~1ms, 10 slow at ~50ms.
	for i := 0; i < 80; i++ {
		lt.observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		lt.observe(50 * time.Millisecond)
	}
	p50 := lt.quantile(0.5)
	if p50 < time.Millisecond || p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms (within bucket rounding)", p50)
	}
	p99 := lt.quantile(0.99)
	if p99 < 50*time.Millisecond || p99 > 80*time.Millisecond {
		t.Fatalf("p99 = %v, want ~50ms (within bucket rounding)", p99)
	}
	if bad := lt.quantile(1.5); bad != 0 {
		t.Fatalf("quantile(1.5) = %v, want 0", bad)
	}
}

func TestLatencyTrackerConcurrentObserve(t *testing.T) {
	var lt latencyTracker
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				lt.observe(time.Duration(w+1) * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	if n := lt.count.Load(); n != 8000 {
		t.Fatalf("count = %d, want 8000", n)
	}
	if q := lt.quantile(0.5); q <= 0 {
		t.Fatalf("p50 after concurrent observes = %v", q)
	}
}

// Hedging must never fragment the result-cache key: a hit computed without
// hedging serves hedged queries and vice versa.
func TestHedgeOptionSharesCacheEntries(t *testing.T) {
	corpus, order := smallCorpus(t)
	f := newReplicaFixture(t, corpus, order, 2, Config{Cache: &CacheConfig{MaxEntries: 32}})
	if _, err := f.pool.Query(ModeCN, "alpha", 5, Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := f.pool.Query(ModeCN, "alpha", 5, Options{HedgeAfter: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Trace.CacheHit {
		t.Fatal("HedgeAfter fragmented the cache key: expected a hit")
	}
}

// The metric families registered for replication render on the registry so
// a scrape sees them from process start.
func TestReplicaMetricFamiliesRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	newMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	for _, fam := range []string{
		"teraphim_hedge_launched_total",
		"teraphim_hedge_won_total",
		"teraphim_replica_ejections_total",
		"teraphim_replica_readmissions_total",
	} {
		if !strings.Contains(page, fam) {
			t.Fatalf("metric family %q missing from rendered page", fam)
		}
	}
}
