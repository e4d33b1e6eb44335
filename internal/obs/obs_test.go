package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("t_total", "help", "")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("t_gauge", "help", "")
	g.Set(7)
	g.Dec()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	// Registration is idempotent per (name, labels).
	if reg.Counter("t_total", "help", "") != c {
		t.Fatal("re-registration returned a different counter")
	}
	if reg.Counter("t_total", "help", `mode="CV"`) == c {
		t.Fatal("distinct labels returned the same counter")
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_seconds", "help", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-16) > 1e-12 {
		t.Fatalf("sum = %g, want 16", h.Sum())
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: <=1 holds 2 (0.5, 1), <=2 holds 3, <=5 holds 4,
	// +Inf holds all 5.
	for _, want := range []string{
		`t_seconds_bucket{le="1"} 2`,
		`t_seconds_bucket{le="2"} 3`,
		`t_seconds_bucket{le="5"} 4`,
		`t_seconds_bucket{le="+Inf"} 5`,
		`t_seconds_sum 16`,
		`t_seconds_count 5`,
		"# TYPE t_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestRenderLabelsAndHeaders(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("q_total", "queries served", `mode="CN"`).Add(2)
	reg.Counter("q_total", "queries served", `mode="CV"`).Add(3)
	reg.Gauge("conns", "open connections", `lib="AP"`).Set(1)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Count(out, "# HELP q_total queries served") != 1 {
		t.Fatalf("HELP not rendered exactly once per family:\n%s", out)
	}
	for _, want := range []string{
		`q_total{mode="CN"} 2`,
		`q_total{mode="CV"} 3`,
		`conns{lib="AP"} 1`,
		"# TYPE q_total counter",
		"# TYPE conns gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual", "h", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge under a counter name did not panic")
		}
	}()
	reg.Gauge("dual", "h", "")
}

// TestConcurrentHammer races registration and every instrument operation
// across goroutines; run under -race (make race) this is the subsystem's
// thread-safety proof. Totals must come out exact — atomic, not racy.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Same names from every goroutine: registration must dedupe.
			c := reg.Counter("hammer_total", "h", "")
			ga := reg.Gauge("hammer_gauge", "h", "")
			h := reg.Histogram("hammer_seconds", "h", "", []float64{0.5, 1})
			for i := 0; i < perG; i++ {
				c.Inc()
				ga.Inc()
				h.Observe(0.25)
				if i%3 == 0 {
					var b strings.Builder
					_ = reg.WritePrometheus(&b)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := reg.Counter("hammer_total", "h", "").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("hammer_gauge", "h", "").Value(); got != goroutines*perG {
		t.Fatalf("gauge = %d, want %d", got, goroutines*perG)
	}
	h := reg.Histogram("hammer_seconds", "h", "", nil)
	if h.Count() != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*perG)
	}
	if want := 0.25 * goroutines * perG; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", h.Sum(), want)
	}
}

func TestHTTPEndpointServesMetricsAndPprof(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total", "h", "").Add(9)
	srv, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "served_total 9") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body = get("/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

// TestObservePathAllocFree pins the hot-path property the query pipeline
// relies on: a registered instrument's operations allocate nothing.
func TestObservePathAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a_total", "h", "")
	g := reg.Gauge("a_gauge", "h", "")
	h := reg.Histogram("a_seconds", "h", "", nil)
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(2)
		g.Dec()
		h.Observe(0.017)
		h.ObserveDuration(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("instrument ops allocated %v per run, want 0", allocs)
	}
}
