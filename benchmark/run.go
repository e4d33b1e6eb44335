package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/costmodel"
)

// runConfig is one run: one workload, traced or not.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	outDir  string
}

// result is one run's outcome in the benchmark's one output schema.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples is how many observations stand behind a metric, where that
	// is not one.
	Samples map[string]int `json:"samples"`
	// Windows are the durations used, in seconds.
	Windows map[string]float64 `json:"windows_s"`
	// TailPercentile is the highest percentile of phase-A latency with at
	// least ten samples beyond it; TailMs is its value.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	TailMs         float64 `json:"tail_ms,omitempty"`
}

func (r *result) specs() []metricSpec {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes every metric by name with its unit.
func (r *result) print(out io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Trace {
		kind = "per-layer, traced pass"
	}
	fmt.Fprintf(out, "\n%s (%s): attempted=%d failed=%d windows=%v\n", r.Workload, kind, r.Attempted, r.Failed, r.Windows)
	for _, spec := range r.specs() {
		line := fmt.Sprintf("  %-36s %14.4f %s", spec.name, r.Metrics[spec.name], spec.unit)
		if n, ok := r.Samples[spec.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(out, line)
	}
	if r.TailPercentile > 0 {
		fmt.Fprintf(out, "  %-36s %14.4f ms  (highest percentile with >=%d samples beyond it)\n",
			fmt.Sprintf("query_p%g_ms", r.TailPercentile), r.TailMs, minBeyond)
	}
}

// contractLine is the last line of a single run's output.
func (r *result) contractLine() map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, spec := range r.specs() {
		metrics[spec.name] = value{r.Metrics[spec.name], spec.unit}
	}
	return map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// benchCPU are the unit costs costmodel.Estimate is given: the paper's cost
// structure (per posting, per candidate, per merged item, per query term)
// with this machine's constants instead of a 60 MHz SuperSPARC's, read once
// off the first recorded probes (index.scan_ns_per_posting,
// search.rank_us_exact / postings, store.fetch_us_per_doc). They are fixed,
// not fitted per run, so costmodel.predicted_over_measured moves when the
// system does; the model's disks cost nothing (everything is in memory).
var benchCPU = costmodel.CPUModel{
	PerPosting:     45 * time.Nanosecond,
	PerCandidate:   20 * time.Nanosecond,
	PerMergeItem:   200 * time.Nanosecond,
	PerQueryTerm:   500 * time.Nanosecond,
	DecompressRate: 16 << 20,
}

// A slice of phase A holds at least sliceQueries queries (10 beyond its p95),
// and a phase is cut into at most maxSlices.
const (
	sliceQueries = 200
	maxSlices    = 20
)

// runOne generates the inputs, sets the deployment up, passes the
// correctness gate and measures one workload.
func runOne(rc runConfig) (*result, error) {
	w, sz := rc.w, rc.sz
	window := time.Duration(rc.seconds * float64(time.Second))
	// Untraced: warm-up, phase A (1 client), phase B (2 clients), equal
	// halves of the window. Traced: warm-up, an untraced and a traced
	// 1-client pass of a quarter window each; the probes take the rest.
	warm, first, second, reps := window/5, window/2, window/2, sz.setupReps
	if rc.trace {
		warm, first, second, reps = window/10, window/4, window/4, 1
	}
	res := &result{
		Workload: w.name, Trace: rc.trace,
		Metrics: make(map[string]float64), Samples: make(map[string]int),
		Windows: map[string]float64{"warmup": warm.Seconds(), "first": first.Seconds(), "second": second.Seconds()},
	}
	m := res.Metrics
	// Layers only ingest-mixed has; it overwrites these.
	for _, name := range []string{"librarian.segments", "librarian.merges", "librarian.ingest_lag_ms",
		"librarian.ingest_flush_p50_ms", "core.cache_hit_ratio", "core.cache_invalidations"} {
		m[name] = 0
	}

	in, err := makeInputs(w, sz, rc.seed, (warm+first+second).Seconds()+1)
	if err != nil {
		return nil, err
	}

	// Set-up, several times: one set-up is a few seconds of mostly
	// allocation-heavy work and varies more than any query metric.
	var d *deployment
	var setups, heaps, builds []float64
	for i := 0; i < reps; i++ {
		if d != nil {
			d.close()
		}
		if d, err = setUp(w, sz, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups, heaps, builds = append(setups, d.setupSeconds), append(heaps, d.heapMB), append(builds, d.buildSeconds)
	}
	defer d.close()
	docs := 0
	for _, sub := range in.subs {
		docs += len(sub.Docs)
	}
	m["setup_s"], m["setup_heap_mb"] = median(setups), median(heaps)
	m["librarian.build_s"] = median(builds)
	// Documents made searchable per second: index construction on a static
	// fleet, streaming ingest (below) on an updatable one.
	m["ingest_docs_per_s"] = float64(docs) / betterHalf(builds, "lower")
	res.Samples["setup_s"], res.Samples["setup_heap_mb"], res.Samples["ingest_docs_per_s"] = reps, reps, reps

	ctx := context.Background()
	libs := d.libs
	var feed *feeder
	var writer *writerStats
	stopWriter := func() {}
	if w.ingest {
		feed = &feeder{held: in.held, taken: make([]int, len(in.held))}
		rates, err := ingestAll(ctx, d.ups, feed, sz.ingestDocs, sz.batchDocs)
		if err != nil {
			return nil, fmt.Errorf("ingest step 1: %w", err)
		}
		m["ingest_docs_per_s"] = betterHalf(rates, "higher")
		res.Samples["ingest_docs_per_s"] = len(rates)
		ops := writerSchedule(len(in.held)*len(in.held[0])/sz.batchDocs, len(d.ups), sz.batchDocs, sz.writerRate)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			writer = runWriter(stop, d.ups, feed, ops, sz.batchDocs)
		}()
		var once sync.Once
		stopWriter = func() { once.Do(func() { close(stop); <-done }) }
		defer stopWriter() // on an error path; before the deployment closes
	} else if err := gateStatic(w, sz, d, in); err != nil {
		return nil, err
	}

	cacheBefore, _ := d.pool.CacheStats()
	var tp *tracedPass
	total := closedLoop(w, d, in, 1, 0, warm, 0, nil)
	if rc.trace {
		tp, err = measureLayers(res, &total, w, sz, d, in, first, second)
	} else {
		err = measureEndToEnd(res, &total, w, d, in, warm, first, second)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = total.attempted, total.failed

	if w.ingest {
		stopWriter()
		if writer.err != nil {
			return nil, fmt.Errorf("paced writer: %w", writer.err)
		}
		if err := d.flushAll(ctx); err != nil {
			return nil, fmt.Errorf("final flush: %w", err)
		}
		if libs, err = gateIngest(sz, d, in, feed); err != nil {
			return nil, err
		}
		for _, u := range d.ups {
			st := u.SegmentStats()
			m["librarian.segments"] += float64(len(st.Segments))
			m["librarian.merges"] += float64(st.Merges)
		}
		m["librarian.ingest_lag_ms"] = mean(writer.lateMs)
		m["librarian.ingest_flush_p50_ms"] = median(writer.searchableMs)
		res.Samples["librarian.ingest_flush_p50_ms"] = len(writer.searchableMs)
	}
	if cs, ok := d.pool.CacheStats(); ok {
		hits, misses := cs.Hits-cacheBefore.Hits, cs.Misses-cacheBefore.Misses
		if hits+misses > 0 {
			m["core.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		m["core.cache_invalidations"] = float64(cs.Invalidations - cacheBefore.Invalidations)
	}

	if rc.trace {
		env := &probeEnv{w: w, in: in, rec: tp.rec, fed: d.pool.Federation(), libs: libs, queries: tp.queries, answers: tp.answers}
		for _, lib := range d.libs {
			env.servers = append(env.servers, lib)
		}
		for _, u := range d.ups {
			env.servers = append(env.servers, u)
		}
		probed, err := env.all()
		if err != nil {
			return nil, err
		}
		for name, v := range probed {
			m[name] = v
		}
		if err := tp.rec.writeTrace(rc.outDir, w.name, rc.seed); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	for _, spec := range res.specs() {
		if v, ok := m[spec.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", spec.name, v)
		}
	}
	return res, nil
}

// measureEndToEnd runs phase A (1 client) and phase B (2 clients) and fills
// in the query metrics. The phases are cut into slices that alternate, and
// each metric is the mean over the better half of its slices (see
// betterHalf): this host slows memory-bound work by 10-20 % for seconds at a
// time, and a figure pooled over every slice follows those episodes from run
// to run. A slice must hold enough queries for its own p95, so a slow
// workload gets fewer slices, down to one; the warm-up pass in total says how
// fast this one is.
func measureEndToEnd(res *result, total *passResult, w *workload, d *deployment, in *inputs, warm, first, second time.Duration) error {
	slices := min(maxSlices, max(1, int(float64(len(total.latencyMs))*first.Seconds()/warm.Seconds())/sliceQueries))
	var pooled, p50s, p95s, rates []float64
	next, completed := len(total.latencyMs), 0
	for i := 0; i < slices; i++ {
		a := closedLoop(w, d, in, 1, next, first/time.Duration(slices), 0, nil)
		next += a.attempted
		b := closedLoop(w, d, in, 2, next, second/time.Duration(slices), 0, nil)
		next += b.attempted
		total.add(a)
		total.add(b)
		if len(a.latencyMs) == 0 || len(b.latencyMs) == 0 {
			return fmt.Errorf("no query completed (%d attempted)", total.attempted)
		}
		sorted := sortedCopy(a.latencyMs)
		p50s, p95s = append(p50s, percentile(sorted, 50)), append(p95s, percentile(sorted, 95))
		rates = append(rates, float64(len(b.latencyMs))/b.elapsed.Seconds())
		pooled = append(pooled, a.latencyMs...)
		completed += len(b.latencyMs)
	}
	m := res.Metrics
	m["query_p50_ms"], m["query_p95_ms"] = betterHalf(p50s, "lower"), betterHalf(p95s, "lower")
	m["queries_per_s"] = betterHalf(rates, "higher")
	res.Samples["query_p50_ms"], res.Samples["query_p95_ms"], res.Samples["queries_per_s"] = len(pooled), len(pooled), completed
	res.Windows["slices"] = float64(slices)
	if p := highestSupported(len(pooled)); p > 0 {
		res.TailPercentile, res.TailMs = p, percentile(sortedCopy(pooled), p)
	}
	return nil
}

// measureLayers runs an untraced and a traced 1-client pass over the head of
// the schedule and fills in what they show; the probes run later, on what
// the traced pass collected.
func measureLayers(res *result, total *passResult, w *workload, sz sizes, d *deployment, in *inputs, first, second time.Duration) (*tracedPass, error) {
	m := res.Metrics
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := closedLoop(w, d, in, 1, 0, first, 0, nil)
	runtime.ReadMemStats(&after)
	total.add(plain)
	if len(plain.latencyMs) == 0 {
		return nil, fmt.Errorf("no query completed (%d attempted)", total.attempted)
	}
	// Process-wide, so on ingest-mixed the writer's allocations count too.
	m["core.allocs_per_query"] = float64(after.Mallocs-before.Mallocs) / float64(plain.attempted)
	m["core.alloc_bytes_per_query"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(plain.attempted)
	res.Samples["core.allocs_per_query"] = plain.attempted

	tp := newTracedPass(w, sz, in)
	traced := closedLoop(w, d, in, 1, 0, second, sz.probeQueries, tp.observe)
	total.add(traced)
	if tp.n < sz.probeQueries {
		return nil, fmt.Errorf("traced pass completed %d queries, the probes need %d", tp.n, sz.probeQueries)
	}
	tp.metrics(m, res.Samples)
	p50 := median(plain.latencyMs)
	m["bench.trace_overhead_frac"] = (median(traced.latencyMs) - p50) / p50
	return tp, nil
}

// tracedPass collects what the 1-client traced pass observes.
type tracedPass struct {
	w   *workload
	in  *inputs
	rec *recorder
	n   int // queries observed

	span, analyze, ship, wait, merge time.Duration // sums over every query

	// The first len(queries) queries are the probe set: the head of the
	// schedule, the same queries in every run of one seed, so the counters
	// summed over them repeat exactly.
	queries   []int32
	answers   [][]core.Answer
	trips     int
	wireBytes int
	docBytes  int
	work      struct{ postings, indexBytes, candidates uint64 }
	predicted time.Duration
	measured  time.Duration
	cost      costmodel.Config
}

func newTracedPass(w *workload, sz sizes, in *inputs) *tracedPass {
	return &tracedPass{
		w: w, in: in, rec: newRecorder(),
		queries: make([]int32, 0, sz.probeQueries),
		cost: costmodel.Config{
			Name:        w.name,
			DefaultLink: costmodel.Link{RTT: 2 * w.link.Latency, Bandwidth: w.link.Bandwidth},
			CPU:         benchCPU,
		},
	}
}

// observe records one completed query: its span tree, its stage timings and,
// for the probe set, its counters.
func (t *tracedPass) observe(pos int, start, end time.Time, res *core.Result) {
	tr := &res.Trace
	t.rec.addQuery(int32(t.n), start, end, tr)
	t.n++
	t.span += end.Sub(start)
	t.analyze += tr.Stages.Analyze
	t.ship += tr.Stages.Ship
	t.wait += tr.Stages.Wait
	t.merge += tr.Stages.Merge
	if len(t.queries) == cap(t.queries) {
		return
	}
	t.queries = append(t.queries, t.in.schedule[pos%len(t.in.schedule)])
	t.answers = append(t.answers, res.Answers)
	t.trips += tr.RoundTrips(0)
	t.wireBytes += tr.BytesTransferred(0)
	work := tr.LibrarianWork()
	t.work.postings += work.PostingsDecoded + tr.CentralStats.PostingsDecoded
	t.work.indexBytes += work.IndexBytesRead + tr.CentralStats.IndexBytesRead
	t.work.candidates += uint64(work.CandidateDocs + tr.CentralStats.CandidateDocs)
	for _, c := range tr.Calls {
		t.docBytes += c.DocBytes
	}
	if est, err := costmodel.Estimate(t.cost, tr); err == nil {
		t.predicted += est.Total()
		t.measured += end.Sub(start)
	}
}

// metrics turns the sums into per-query figures.
func (t *tracedPass) metrics(m map[string]float64, samples map[string]int) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(t.n) }
	m["core.query_span_us"] = us(t.span)
	m["core.stage_analyze_us"] = us(t.analyze)
	m["core.stage_ship_us"] = us(t.ship)
	m["core.stage_wait_us"] = us(t.wait)
	m["core.stage_merge_us"] = us(t.merge)
	// The query span no stage claims: the root span's self time.
	m["core.unaccounted_us"] = us(t.span - t.analyze - t.ship - t.wait - t.merge)
	samples["core.query_span_us"] = t.n

	q := float64(len(t.queries))
	m["protocol.round_trips_per_query"] = float64(t.trips) / q
	m["protocol.wire_bytes_per_query"] = float64(t.wireBytes) / q
	m["search.postings_decoded_per_query"] = float64(t.work.postings) / q
	m["search.candidate_docs_per_query"] = float64(t.work.candidates) / q
	m["index.bytes_read_per_query"] = float64(t.work.indexBytes) / q
	m["store.doc_bytes_per_query"] = float64(t.docBytes) / q
	samples["protocol.round_trips_per_query"] = len(t.queries)
	m["costmodel.predicted_over_measured"] = float64(t.predicted) / float64(t.measured)
}
