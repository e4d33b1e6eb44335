package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {99.9, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

// The highest percentile reported is the highest with at least ten samples
// beyond it: 200 samples support p95 (10 beyond), 199 only p90.
func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95},
		{1000, 99}, {2000, 99.5}, {10000, 99.9}, {20000, 99.95}, {100000, 99.99},
	} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// Self time is the span minus what its children cover: overlapping children
// count once, a child reaching past its parent is clipped, grandchildren
// belong to their own parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "kid", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "kid", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "kid", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "grandkid", Start: 10, End: 30},
	}
	got := selfTimes(spans)
	// root: covered 10..60 and 90..100 = 60 of 100 ns.
	if s := got["root"]; s.Count != 1 || s.MeanUs != 0.1 || math.Abs(s.SelfUs-0.04) > 1e-12 {
		t.Errorf("root = %+v, want mean 0.1 us, self 0.04 us", s)
	}
	// kids: durations 30, 30, 30; only the first has a child (20 ns).
	if s := got["kid"]; s.Count != 3 || math.Abs(s.MeanUs-0.03) > 1e-12 || math.Abs(s.SelfUs-(30+30+30-20)/3.0/1e3) > 1e-12 {
		t.Errorf("kid = %+v", s)
	}
	if s := got["grandkid"]; s.SelfUs != s.MeanUs {
		t.Errorf("a leaf's self time is its duration, got %+v", s)
	}
}

func TestSchedulesFollowTheSeed(t *testing.T) {
	a, b, c := querySchedule(7, 512), querySchedule(7, 512), querySchedule(8, 512)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different query schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same query schedule")
	}
	seen := make(map[int32]bool)
	for _, q := range a {
		seen[q] = true
	}
	if len(a) != 512 || len(seen) != 512 || seen[-1] || seen[512] {
		t.Errorf("query schedule is not a permutation of 512: %d entries, %d distinct", len(a), len(seen))
	}
	ops := writerSchedule(6, 4, 100, 2000)
	want := []writeOp{{0, 0}, {1, 50 * time.Millisecond}, {2, 100 * time.Millisecond}, {3, 150 * time.Millisecond}, {0, 200 * time.Millisecond}, {1, 250 * time.Millisecond}}
	if !reflect.DeepEqual(ops, want) {
		t.Errorf("writerSchedule = %v, want %v", ops, want)
	}
}

func TestBetterHalf(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	if got := betterHalf(xs, "lower"); got != 3 {
		t.Errorf("better half of 1..10, lower is better = %g, want mean(1..5) = 3", got)
	}
	if got := betterHalf(xs, "higher"); got != 8 {
		t.Errorf("better half of 1..10, higher is better = %g, want mean(6..10) = 8", got)
	}
	if got := betterHalf([]float64{4, 1, 7}, "higher"); got != 5.5 {
		t.Errorf("better half of three = %g, want mean(7, 4) = 5.5", got)
	}
	if got := betterHalf([]float64{4}, "lower"); got != 4 {
		t.Errorf("better half of one value = %g", got)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	w := findWorkload("ingest-mixed")
	a, err := makeInputs(w, smokeSizes, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeInputs(w, smokeSizes, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different inputs")
	}
	c, err := makeInputs(w, smokeSizes, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.queries, c.queries) {
		t.Error("different seeds gave the same queries")
	}
	for i := range a.held {
		if want := smokeSizes.ingestDocs/len(a.held) + int(smokeSizes.writerRate)/len(a.held) + smokeSizes.batchDocs; len(a.held[i]) != want {
			t.Errorf("librarian %d holds out %d documents, want %d", i, len(a.held[i]), want)
		}
	}
}

// TestSmoke drives every workload, untraced and traced, through the same
// code the full benchmark runs, on a tiny corpus.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(runConfig{w: w, seed: 1998, seconds: 0.6, trace: traced, sz: smokeSizes, outDir: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d", w.name, traced, res.Attempted, res.Failed)
			}
			res.print(io.Discard)
			line, err := json.Marshal(res.contractLine())
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(res.specs()) {
				t.Errorf("%s trace=%v: result line %s (%v)", w.name, traced, line, err)
			}
			m := res.Metrics
			if !traced {
				for _, spec := range endToEnd {
					if m[spec.name] <= 0 {
						t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w.name, spec.name, m[spec.name])
					}
				}
				continue
			}
			sum := m["core.stage_analyze_us"] + m["core.stage_ship_us"] + m["core.stage_wait_us"] + m["core.stage_merge_us"] + m["core.unaccounted_us"]
			if span := m["core.query_span_us"]; span <= 0 || math.Abs(sum-span) > 0.02*span {
				t.Errorf("%s: stages + unaccounted = %v us, query span = %v us", w.name, sum, span)
			}
			for _, name := range []string{"textproc.analyze_us", "core.weights_us", "selection.select_us", "protocol.frame_encode_ns",
				"protocol.frame_decode_ns", "librarian.exchange_us", "librarian.build_s", "search.rank_us_exact", "search.rank_us_maxscore",
				"search.rank_us_wand", "index.scan_ns_per_posting", "core.allocs_per_query"} {
				if m[name] <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, m[name])
				}
			}
			if w.central != (m["search.scoredocs_us"] > 0) || w.opts.Fetch != (m["store.fetch_us_per_doc"] > 0 && m["store.doc_bytes_per_query"] > 0) {
				t.Errorf("%s: scoredocs %v us, fetch %v us/doc, %v doc bytes", w.name, m["search.scoredocs_us"], m["store.fetch_us_per_doc"], m["store.doc_bytes_per_query"])
			}
			if w.ingest != (m["librarian.segments"] > 0 && m["core.cache_invalidations"] > 0 && m["librarian.ingest_flush_p50_ms"] > 0) {
				t.Errorf("%s: segments %v, invalidations %v, flush p50 %v ms", w.name, m["librarian.segments"], m["core.cache_invalidations"], m["librarian.ingest_flush_p50_ms"])
			}
			data, err := os.ReadFile(filepath.Join(out, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Spans []span
				Self  map[string]selfStat `json:"by_name"`
			}
			if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) == 0 || file.Self[spanQuery].Count == 0 {
				t.Errorf("%s: trace file: %v, %d spans, %d query roots", w.name, err, len(file.Spans), file.Self[spanQuery].Count)
			}
			// The root span's self time is what the metrics call unaccounted,
			// except that a query whose stage maxima add up to more than its
			// span has them clipped in the tree and counted in full in the sum.
			if root := file.Self[spanQuery]; root.SelfUs < m["core.unaccounted_us"]-0.02*m["core.query_span_us"] {
				t.Errorf("%s: root self time %v us is below core.unaccounted_us %v", w.name, root.SelfUs, m["core.unaccounted_us"])
			}
		}
	}
}

func TestCompareSets(t *testing.T) {
	set := func(p50, trips float64) []*result {
		e2e := map[string]float64{}
		for _, spec := range endToEnd {
			e2e[spec.name] = 1
		}
		e2e["query_p50_ms"] = p50
		layer := map[string]float64{"protocol.round_trips_per_query": trips}
		return []*result{
			{Workload: "cv-short-tcp", Metrics: e2e},
			{Workload: "cv-short-tcp", Trace: true, Metrics: layer},
			{Workload: "ingest-mixed", Trace: true, Metrics: layer},
		}
	}
	bound := endToEnd[0].bound // of query_p50_ms
	if n := compareSets(io.Discard, set(1, 4), set(1+0.9*bound, 4)); n != 0 {
		t.Errorf("0.9 bounds apart: %d problems, want 0", n)
	}
	if n := compareSets(io.Discard, set(1, 4), set(1+1.5*bound, 4)); n != 1 {
		t.Errorf("1.5 bounds apart: %d problems, want 1", n)
	}
	if n := compareSets(io.Discard, set(1+1.5*bound, 4), set(1, 4)); n != 1 {
		t.Errorf("1.5 bounds apart the other way round: %d problems, want 1", n)
	}
	// An exact count that differs at all fails on a static workload only.
	if n := compareSets(io.Discard, set(1, 4), set(1, 4.015625)); n != 1 {
		t.Errorf("exact count off by 1/64: %d problems, want 1", n)
	}
}

// BENCHMARK.json at the repository root is what the driver reads; the tables
// in this package are what the program reports. They must say the same.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d is %q (%q), the program says %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, listed []metric, specs []metricSpec, bounded bool) {
		if len(listed) != len(specs) {
			t.Fatalf("%s: %d metrics listed, the program reports %d", kind, len(listed), len(specs))
		}
		for i, spec := range specs {
			got := listed[i]
			if got.Name != spec.name || got.Unit != spec.unit || got.Better != spec.better {
				t.Errorf("%s %d is %+v, the program says %s [%s] %s", kind, i, got, spec.name, spec.unit, spec.better)
			}
			if bounded != (got.Bound != nil) || (bounded && (*got.Bound != spec.bound || spec.bound <= 0 || spec.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, the program says %v", kind, spec.name, got.Bound, spec.bound)
			}
			if len(spec.name) > 64 || len(spec.unit) > 16 {
				t.Errorf("%s %s [%s]: name or unit too long", kind, spec.name, spec.unit)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	for _, name := range exactCounts {
		found := false
		for _, spec := range perLayer {
			found = found || spec.name == name
		}
		if !found {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}
