package experiments

import (
	"io"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/costmodel"
	"teraphim/internal/eval"
	"teraphim/internal/trecsynth"
)

// Fusion compares CN merge strategies (the paper's face-value merge against
// the Voorhees-style collection-fusion baselines) on the short query set.
func (r *Runner) Fusion(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	line(w, "CN merge-strategy comparison (short queries)\n")
	line(w, "%-14s %14s %16s\n", "Merge", "11-pt avg (%)", "Rel. in top 20")
	for _, strategy := range []core.MergeStrategy{core.MergeFaceValue, core.MergeNormalized, core.MergeRoundRobin} {
		runs, _, err := r.Run(RunSpec{Label: "CN", Mode: core.ModeCN}, queries, evalDepth,
			core.Options{Merge: strategy})
		if err != nil {
			return err
		}
		s := eval.Evaluate(r.Corpus.Qrels, runs, evalDepth, topK)
		line(w, "%-14s %14.2f %16.1f\n", strategy, s.ElevenPtAvg, s.MeanRelevantTop)
	}
	return nil
}

// ResourceScaling reproduces the paper's efficiency analysis: as the number
// of subcollections S grows, response time barely improves (or worsens on a
// WAN) while aggregate resource use — lists fetched and postings decoded
// across all librarians — keeps climbing, because "one of the major costs
// of query evaluation ... is accessing the vocabulary and fetching the
// inverted lists, and this operation is repeated at each librarian".
func (r *Runner) ResourceScaling(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	line(w, "Resource use versus number of subcollections (short queries, CV, k=20)\n")
	line(w, "%-4s %14s %16s %14s %14s\n", "S", "lists/query", "postings/query", "mono-disk sec", "LAN sec")

	// MS baseline row (S=1 equivalent).
	_, msTraces, err := r.Run(RunSpec{Label: "MS", Mode: core.ModeMS}, queries, topK, core.Options{})
	if err != nil {
		return err
	}
	msLists, msPostings := resourceTotals(msTraces)
	line(w, "%-4s %14.1f %16.0f %14s %14s\n", "MS", msLists, msPostings, "-", "-")

	for _, s := range []int{2, 4, 8, 16} {
		var runner *Runner
		if s == len(r.Corpus.Subcollections) {
			runner = r
		} else {
			split, err := r.Corpus.Split(s)
			if err != nil {
				return err
			}
			runner, err = newRunnerFromCorpus(split)
			if err != nil {
				return err
			}
			defer runner.Close()
		}
		_, traces, err := runner.Run(RunSpec{Label: "CV", Mode: core.ModeCV}, queries, topK, core.Options{})
		if err != nil {
			return err
		}
		lists, postings := resourceTotals(traces)
		mono, err := meanRank(traces, costmodel.MonoDisk(), runner)
		if err != nil {
			return err
		}
		lan, err := meanRank(traces, costmodel.LAN(), runner)
		if err != nil {
			return err
		}
		line(w, "%-4d %14.1f %16.0f %14.3f %14.3f\n", s, lists, postings, mono.Seconds(), lan.Seconds())
	}
	line(w, "lists fetched grow with S while elapsed time does not improve: the paper's\n")
	line(w, "\"only a small speed increase is available ... at the cost of a great deal of\n")
	line(w, "additional processing\".\n")
	return nil
}

// resourceTotals averages per-query librarian+central work over traces.
func resourceTotals(traces []*core.Trace) (lists, postings float64) {
	for _, tr := range traces {
		work := tr.LibrarianWork()
		work.Add(tr.CentralStats)
		lists += float64(work.ListsFetched)
		postings += float64(work.PostingsDecoded)
	}
	n := float64(len(traces))
	return lists / n, postings / n
}

func meanRank(traces []*core.Trace, cfg costmodel.Config, runner *Runner) (time.Duration, error) {
	cfg.WorkScale = float64(paperCorpusDocs) / float64(runner.pool.Federation().TotalDocs())
	var sum time.Duration
	for _, tr := range traces {
		b, err := costmodel.Estimate(cfg, tr)
		if err != nil {
			return 0, err
		}
		sum += b.Rank
	}
	return sum / time.Duration(len(traces)), nil
}

// Throughput reproduces the paper's response-time-versus-resource-use
// distinction at capacity: per-mode saturation throughput, the bottleneck
// resource, and queries/second per machine. "Only a small speed increase is
// available through distribution of a text database" — and per machine,
// distribution costs throughput outright.
func (r *Runner) Throughput(w io.Writer) error {
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	specs := []RunSpec{
		{Label: "MS", Mode: core.ModeMS},
		{Label: "CN", Mode: core.ModeCN},
		{Label: "CV", Mode: core.ModeCV},
		{Label: "CI", Mode: core.ModeCI, KPrime: 100, Group: 10},
	}
	cfg := costmodel.MultiDisk()
	cfg.WorkScale = float64(paperCorpusDocs) / float64(r.pool.Federation().TotalDocs())
	line(w, "Saturation throughput (short queries, multi-disk, k=20)\n")
	line(w, "%-6s %14s %18s %24s\n", "Mode", "queries/sec", "per machine", "bottleneck")
	for _, spec := range specs {
		_, traces, err := r.Run(spec, queries, topK, core.Options{})
		if err != nil {
			return err
		}
		report, err := costmodel.Throughput(cfg, traces)
		if err != nil {
			return err
		}
		line(w, "%-6s %14.1f %18.1f %24s\n",
			spec.Label, report.QueriesPerSecond, report.PerMachine, report.Bottleneck)
	}
	return nil
}
