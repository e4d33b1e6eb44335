// Package experiments reproduces the paper's evaluation: Table 1
// (effectiveness), Table 2 (WAN link costs), Tables 3 and 4 (response
// times), and the auxiliary results of §4–5 (index sizes, the
// 43-subcollection split, the skipping optimisation, and index
// thresholding).
//
// A Runner owns one generated corpus and the complete deployment built from
// it: one librarian per subcollection served over in-process links, a
// receptionist, the MS baseline, and grouped central indexes. Table
// functions write the paper's table shape to an io.Writer.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"teraphim/internal/core"
	"teraphim/internal/eval"
	"teraphim/internal/index"
	"teraphim/internal/librarian"
	"teraphim/internal/search"
	"teraphim/internal/simnet"
	"teraphim/internal/store"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

// evalDepth is the ranking depth of the 11-point measure (the paper
// evaluates over 1000 documents retrieved).
const evalDepth = 1000

// topK is the "one screen of titles" depth for the relevant-in-top column.
const topK = 20

// Runner is a complete experimental deployment over one generated corpus.
type Runner struct {
	Corpus   *trecsynth.Corpus
	analyzer *textproc.Analyzer

	libs   []*librarian.Librarian
	dialer *librarian.InProcessDialer
	pool   *core.Pool
	mono   *core.MonoServer

	docTerms [][]string // analysed docs in global order
	keys     []string   // global doc keys in global order
	grouped  map[int]*core.GroupedIndex
}

// NewRunner generates the corpus and builds the full deployment. The
// analyzer disables stemming and stopping because the synthetic vocabulary
// is already normalised; librarians, receptionist and MS all share it.
func NewRunner(cfg trecsynth.Config) (*Runner, error) {
	corpus, err := trecsynth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate corpus: %w", err)
	}
	return newRunnerFromCorpus(corpus)
}

func newRunnerFromCorpus(corpus *trecsynth.Corpus) (*Runner, error) {
	r := &Runner{
		Corpus:   corpus,
		analyzer: textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming()),
		grouped:  make(map[int]*core.GroupedIndex),
	}
	var names []string
	for _, sub := range corpus.Subcollections {
		lib, err := librarian.Build(sub.Name, sub.Docs, librarian.BuildOptions{Analyzer: r.analyzer})
		if err != nil {
			return nil, fmt.Errorf("experiments: build librarian %q: %w", sub.Name, err)
		}
		r.libs = append(r.libs, lib)
		names = append(names, sub.Name)
		for _, d := range sub.Docs {
			r.docTerms = append(r.docTerms, r.analyzer.Terms(nil, d.Text))
			r.keys = append(r.keys, trecsynth.DocKey(sub.Name, d.ID))
		}
	}
	r.dialer = librarian.NewInProcessDialer(r.libs, simnet.LinkConfig{})
	// The tables reproduce the paper's protocol: every nominated score
	// returned, documents fetched in a second round.
	pool, err := core.NewPool(r.dialer, names, core.Config{
		Analyzer:      r.analyzer,
		TwoRoundFetch: true,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: connect receptionist: %w", err)
	}
	r.pool = pool
	if _, err := pool.SetupVocabulary(); err != nil {
		return nil, fmt.Errorf("experiments: setup vocabulary: %w", err)
	}
	if _, err := pool.SetupModels(); err != nil {
		return nil, fmt.Errorf("experiments: setup models: %w", err)
	}

	// MS baseline over the concatenated collection.
	b := index.NewBuilder()
	for _, terms := range r.docTerms {
		b.Add(terms)
	}
	ix, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("experiments: build MS index: %w", err)
	}
	docs, _ := corpus.AllDocs()
	st, err := store.Build(docs)
	if err != nil {
		return nil, fmt.Errorf("experiments: build MS store: %w", err)
	}
	mono, err := core.NewMonoServer(search.NewEngine(ix, r.analyzer), st, r.keys)
	if err != nil {
		return nil, err
	}
	r.mono = mono
	return r, nil
}

// Close tears down the receptionist's connections.
func (r *Runner) Close() {
	r.pool.Close()
	r.dialer.Wait()
}

// Pool exposes the deployment's receptionist.
func (r *Runner) Pool() *core.Pool { return r.pool }

// GroupedIndex builds (or returns the cached) grouped central index for
// group size G and installs it at the receptionist.
func (r *Runner) GroupedIndex(g int) (*core.GroupedIndex, error) {
	if gi, ok := r.grouped[g]; ok {
		if err := r.pool.Federation().SetupCentralIndex(gi); err != nil {
			return nil, err
		}
		return gi, nil
	}
	gi, err := core.BuildGrouped(r.docTerms, g, r.analyzer)
	if err != nil {
		return nil, err
	}
	if err := r.pool.Federation().SetupCentralIndex(gi); err != nil {
		return nil, err
	}
	r.grouped[g] = gi
	return gi, nil
}

// RunSpec names one retrieval mode with its parameters.
type RunSpec struct {
	Label  string
	Mode   core.Mode
	KPrime int // CI only
	Group  int // CI only; 0 selects 10
}

// StandardSpecs returns the Table 1 row set.
func StandardSpecs() []RunSpec {
	return []RunSpec{
		{Label: "MS and CV", Mode: core.ModeCV},
		{Label: "CN", Mode: core.ModeCN},
		{Label: "CI, k'=100", Mode: core.ModeCI, KPrime: 100, Group: 10},
		{Label: "CI, k'=1000", Mode: core.ModeCI, KPrime: 1000, Group: 10},
	}
}

// Run evaluates the query set under one spec, returning per-query ranked
// runs and traces.
func (r *Runner) Run(spec RunSpec, queries []trecsynth.Query, k int, opts core.Options) (map[string]eval.Run, []*core.Trace, error) {
	if spec.Mode == core.ModeCI {
		g := spec.Group
		if g == 0 {
			g = 10
		}
		if _, err := r.GroupedIndex(g); err != nil {
			return nil, nil, err
		}
		opts.KPrime = spec.KPrime
	}
	runs := make(map[string]eval.Run, len(queries))
	traces := make([]*core.Trace, 0, len(queries))
	for _, q := range queries {
		var res *core.Result
		var err error
		if spec.Mode == core.ModeMS {
			res, err = r.mono.Query(q.Text, k, opts)
		} else {
			res, err = r.pool.Query(spec.Mode, q.Text, k, opts)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s query %s: %w", spec.Label, q.ID, err)
		}
		run := make(eval.Run, len(res.Answers))
		for i, a := range res.Answers {
			run[i] = a.Key()
		}
		runs[q.ID] = run
		traces = append(traces, &res.Trace)
	}
	return runs, traces, nil
}

// Effectiveness runs a spec over a query set and scores it.
func (r *Runner) Effectiveness(spec RunSpec, queries []trecsynth.Query) (eval.Summary, error) {
	runs, _, err := r.Run(spec, queries, evalDepth, core.Options{})
	if err != nil {
		return eval.Summary{}, err
	}
	return eval.Evaluate(r.Corpus.Qrels, runs, evalDepth, topK), nil
}

// sortedLibNames returns librarian names in deterministic order.
func (r *Runner) sortedLibNames() []string {
	names := append([]string(nil), r.pool.Federation().Librarians()...)
	sort.Strings(names)
	return names
}

// line writes a formatted line, swallowing the write error into err
// aggregation by the caller (tables are best-effort console output).
func line(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
