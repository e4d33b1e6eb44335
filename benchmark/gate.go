package main

import (
	"fmt"

	"teraphim/internal/core"
	"teraphim/internal/index"
	"teraphim/internal/librarian"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// The correctness gate runs before anything is timed, on the first
// gateProbes queries of the generated set. It holds the system to the
// paper's invariants with ==, not a tolerance: a benchmark of a system that
// answers differently is a benchmark of a different system.

// buildMono builds the MS baseline: one index over every document, in
// subcollection order, keyed like the distributed answers.
func buildMono(subs []trecsynth.Subcollection) (*core.MonoServer, error) {
	analyzer := textproc.NewAnalyzer()
	b := index.NewBuilder()
	var keys []string
	for _, sub := range subs {
		for _, d := range sub.Docs {
			b.Add(analyzer.Terms(nil, d.Text))
			keys = append(keys, trecsynth.DocKey(sub.Name, d.ID))
		}
	}
	ix, err := b.Build()
	if err != nil {
		return nil, err
	}
	return core.NewMonoServer(search.NewEngine(ix, analyzer), nil, keys)
}

// sameAnswers requires identical keys and float64 scores, in order.
func sameAnswers(got, want []core.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() || got[i].Score != want[i].Score {
			return fmt.Errorf("answer %d is %s %v, want %s %v", i, got[i].Key(), got[i].Score, want[i].Key(), want[i].Score)
		}
	}
	return nil
}

// gateStatic checks a static deployment: CV answers equal the mono-server's
// (keys and scores: the paper's CV = MS invariant); under CI every answer's
// score equals the mono-server's score of that document, and fetched text
// equals what was indexed.
func gateStatic(w *workload, sz sizes, d *deployment, in *inputs) error {
	mono, err := buildMono(in.subs)
	if err != nil {
		return fmt.Errorf("gate: build mono-server: %w", err)
	}
	var docs []store.Document
	if w.opts.Fetch {
		for _, sub := range in.subs {
			docs = append(docs, sub.Docs...)
		}
	}
	for i := 0; i < sz.gateProbes; i++ {
		q := in.queries[i]
		ms, err := mono.Query(q, topK, core.Options{})
		if err != nil {
			return fmt.Errorf("gate: MS query %d: %w", i, err)
		}
		cv, err := d.pool.Query(core.ModeCV, q, topK, core.Options{})
		if err != nil {
			return fmt.Errorf("gate: CV query %d: %w", i, err)
		}
		if err := sameAnswers(cv.Answers, ms.Answers); err != nil {
			return fmt.Errorf("gate: CV != MS on query %d: %w", i, err)
		}
		if w.mode != core.ModeCI {
			continue
		}
		ci, err := d.pool.Query(core.ModeCI, q, topK, w.opts)
		if err != nil {
			return fmt.Errorf("gate: CI query %d: %w", i, err)
		}
		if !answerOK(w, ci) {
			return fmt.Errorf("gate: CI query %d: not %d ordered answers", i, topK)
		}
		for _, a := range ci.Answers {
			ref, err := mono.Engine().ScoreDocs(q, []uint32{a.GlobalDoc}, nil)
			if err != nil {
				return fmt.Errorf("gate: MS score of %s: %w", a.Key(), err)
			}
			if a.Score != ref.Results[0].Score {
				return fmt.Errorf("gate: CI score of %s on query %d is %v, MS says %v", a.Key(), i, a.Score, ref.Results[0].Score)
			}
			if w.opts.Fetch && a.Text != docs[a.GlobalDoc].Text {
				return fmt.Errorf("gate: fetched text of %s differs from the indexed document", a.Key())
			}
		}
	}
	return nil
}

// gateIngest checks an updatable fleet after its final Flush: rankings equal
// those of static librarians built from the same documents (multi-segment =
// rebuild). Queries go through the deployment's own pool, cache included, so
// an answer cached across a publication fails the gate too. It returns the
// reference fleet, which the layer probes reuse.
func gateIngest(sz sizes, d *deployment, in *inputs, feed *feeder) ([]*librarian.Librarian, error) {
	ref := make([]trecsynth.Subcollection, len(in.subs))
	for i, sub := range in.subs {
		docs := append(append([]store.Document(nil), sub.Docs...), feed.held[i][:feed.taken[i]]...)
		ref[i] = trecsynth.Subcollection{Name: sub.Name, Docs: docs}
	}
	libs, err := buildStatic(ref)
	if err != nil {
		return nil, fmt.Errorf("gate: build reference fleet: %w", err)
	}
	dialer := librarian.NewInProcessDialer(libs, simnet.LinkConfig{})
	pool, err := core.NewPool(dialer, d.names, core.Config{})
	if err != nil {
		return nil, fmt.Errorf("gate: connect reference fleet: %w", err)
	}
	defer dialer.Wait()
	defer pool.Close()
	for i := 0; i < sz.gateProbes; i++ {
		q := in.queries[i]
		want, err := pool.Query(core.ModeCN, q, topK, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("gate: reference query %d: %w", i, err)
		}
		got, err := d.pool.Query(core.ModeCN, q, topK, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("gate: query %d: %w", i, err)
		}
		if err := sameAnswers(got.Answers, want.Answers); err != nil {
			return nil, fmt.Errorf("gate: segmented != rebuilt on query %d: %w", i, err)
		}
	}
	return libs, nil
}
