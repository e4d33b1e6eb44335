package main

import (
	"context"
	"sync"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/librarian"
	"teraphim/internal/store"
)

// passResult is what one closed-loop pass observed.
type passResult struct {
	latencyMs []float64 // one per completed query, all clients
	attempted int
	failed    int // errors + answers failing answerOK
	elapsed   time.Duration
}

// add counts another pass's attempts and failures into p; latencies stay
// with the pass that measured them.
func (p *passResult) add(o passResult) {
	p.attempted += o.attempted
	p.failed += o.failed
}

// answerOK is the check every timed result must pass: k answers in
// non-increasing score order, each with its text when the workload fetches.
func answerOK(w *workload, res *core.Result) bool {
	if len(res.Answers) != topK {
		return false
	}
	for i, a := range res.Answers {
		if i > 0 && a.Score > res.Answers[i-1].Score {
			return false
		}
		if w.opts.Fetch && a.Text == "" {
			return false
		}
	}
	return true
}

// closedLoop runs clients callers for duration dur, and beyond it until each
// has completed atLeast queries. Each caller waits for its reply before
// sending its next query, so a slower system receives less load. Client c
// draws schedule positions from+c, from+c+clients, ... observe, when set,
// sees every completed query of client 0 (the traced pass runs one client).
func closedLoop(w *workload, d *deployment, in *inputs, clients, from int, dur time.Duration, atLeast int,
	observe func(pos int, start, end time.Time, res *core.Result)) passResult {
	results := make([]passResult, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	deadline := begin.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess := d.pool.Session()
			r := &results[c]
			for pos := from + c; ; pos += clients {
				start := time.Now()
				if !start.Before(deadline) && (len(r.latencyMs) >= atLeast || r.failed > 0) {
					return
				}
				q := in.queries[in.schedule[pos%len(in.schedule)]]
				res, err := sess.QueryContext(context.Background(), w.mode, q, topK, w.opts)
				end := time.Now()
				r.attempted++
				if err != nil || !answerOK(w, res) {
					r.failed++
					continue
				}
				r.latencyMs = append(r.latencyMs, float64(end.Sub(start).Nanoseconds())/1e6)
				if observe != nil && c == 0 {
					observe(pos, start, end, res)
				}
			}
		}(c)
	}
	wg.Wait()
	total := passResult{elapsed: time.Since(begin)}
	for _, r := range results {
		total.add(r)
		total.latencyMs = append(total.latencyMs, r.latencyMs...)
	}
	return total
}

// writeOp is one batch of the paced writer: which librarian receives it and
// when, relative to the writer's start, it is due.
type writeOp struct {
	lib int
	due time.Duration
}

// writerSchedule lays out n batches of batchDocs documents at rate documents
// per second, round-robin over the librarians. The schedule is fixed before
// the run: an open-loop source sends when a batch is due, not when the
// system is ready for it.
func writerSchedule(n, libs, batchDocs int, rate float64) []writeOp {
	interval := time.Duration(float64(batchDocs) / rate * float64(time.Second))
	ops := make([]writeOp, n)
	for i := range ops {
		ops[i] = writeOp{lib: i % libs, due: time.Duration(i) * interval}
	}
	return ops
}

// writerStats is what the paced writer observed.
type writerStats struct {
	searchableMs []float64 // due time -> Flush returned, per batch
	lateMs       []float64 // due time -> batch actually sent, per batch
	err          error
}

// feeder hands out each librarian's held-out documents in arrival order and
// remembers how many it gave, so the reference fleet of the final gate can
// be built from exactly the documents that were ingested. One goroutine uses
// it at a time.
type feeder struct {
	held  [][]store.Document
	taken []int
}

// next returns librarian lib's next n documents, or nil when fewer remain.
func (f *feeder) next(lib, n int) []store.Document {
	at := f.taken[lib]
	if len(f.held[lib])-at < n {
		return nil
	}
	f.taken[lib] = at + n
	return f.held[lib][at : at+n]
}

// ingestSlices is how many timed slices step 1 is cut into.
const ingestSlices = 10

// ingestAll is step 1 of ingest-mixed: total documents, round-robin in
// batches, as fast as the librarians accept them. It flushes after every
// tenth of them and returns each slice's documents per second, first Ingest
// to searchable.
func ingestAll(ctx context.Context, ups []*librarian.UpdatableLibrarian, feed *feeder, total, batchDocs int) ([]float64, error) {
	batches := total / batchDocs
	perSlice := max(1, batches/ingestSlices)
	var rates []float64
	for done := 0; done < batches; {
		n := min(perSlice, batches-done)
		start := time.Now()
		for i := done; i < done+n; i++ {
			lib := i % len(ups)
			if err := ups[lib].Ingest(ctx, feed.next(lib, batchDocs)); err != nil {
				return nil, err
			}
		}
		for _, u := range ups {
			if err := u.Flush(ctx); err != nil {
				return nil, err
			}
		}
		rates = append(rates, float64(n*batchDocs)/time.Since(start).Seconds())
		done += n
	}
	return rates, nil
}

// runWriter is step 2 of ingest-mixed: it sends each batch when it is due
// and times it from that moment until Flush returns, i.e. until the batch is
// searchable, so a stall is charged to every batch it delays. It stops
// between batches — never inside one, so the feeder's count stays the count
// of documents ingested — when stop closes or the documents run out.
func runWriter(stop <-chan struct{}, ups []*librarian.UpdatableLibrarian, feed *feeder, ops []writeOp, batchDocs int) *writerStats {
	st := &writerStats{}
	ctx := context.Background()
	start := time.Now()
	for _, op := range ops {
		due := start.Add(op.due)
		select {
		case <-stop:
			return st
		case <-time.After(time.Until(due)):
		}
		batch := feed.next(op.lib, batchDocs)
		if batch == nil {
			return st
		}
		sent := time.Now()
		u := ups[op.lib]
		if err := u.Ingest(ctx, batch); err != nil {
			st.err = err
			return st
		}
		if err := u.Flush(ctx); err != nil {
			st.err = err
			return st
		}
		st.lateMs = append(st.lateMs, float64(sent.Sub(due).Nanoseconds())/1e6)
		st.searchableMs = append(st.searchableMs, float64(time.Since(due).Nanoseconds())/1e6)
	}
	return st
}
