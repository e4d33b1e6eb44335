package teraphim

// BenchmarkSearchKernel measures the ranked-evaluation hot path at two
// levels: the bare search.Engine (Rank at k=10/k=100 and ScoreDocs over a
// synthetic 5000-document collection) and the full deployment (one query
// under each methodology MS/CN/CV/CI at k=10 and k=100). Run
//
//	make bench
//
// which invokes the sweep with -benchmem and regenerates the "current"
// section of BENCH_search.json; the "baseline" section holds the same
// sweep recorded on the pre-kernel evaluator and is preserved across
// regenerations. The file is only (re)written when KERNEL_BENCH_SECTION
// is set, so the short smoke run inside `make verify` leaves it alone.

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"teraphim/internal/core"
	"teraphim/internal/experiments"
	"teraphim/internal/index"
	"teraphim/internal/search"
	"teraphim/internal/textproc"
	"teraphim/internal/trecsynth"
)

var (
	kernelOnce   sync.Once
	kernelEngine *search.Engine
	kernelErr    error
)

// kernelBenchEngine builds the engine-level fixture: the same 5000-document,
// 2000-term collection the package-level BenchmarkRank in internal/search
// uses, so engine rows here are comparable with its history.
func kernelBenchEngine(b *testing.B) *search.Engine {
	b.Helper()
	kernelOnce.Do(func() {
		rng := rand.New(rand.NewSource(21))
		analyzer := textproc.NewAnalyzer(textproc.WithoutStopwords(), textproc.WithoutStemming())
		ib := index.NewBuilder()
		for i := 0; i < 5000; i++ {
			var sb strings.Builder
			for j := 0; j < 60; j++ {
				sb.WriteString("w" + strconv.Itoa(rng.Intn(2000)) + " ")
			}
			ib.Add(analyzer.Terms(nil, sb.String()))
		}
		ix, err := ib.Build()
		if err != nil {
			kernelErr = err
			return
		}
		kernelEngine = search.NewEngine(ix, analyzer)
	})
	if kernelErr != nil {
		b.Fatal(kernelErr)
	}
	return kernelEngine
}

// kernelRow is one cell of BENCH_search.json. Bytes and allocs come from
// runtime.MemStats deltas over the timed loop, so they cover every goroutine
// involved in answering (librarians included), matching what -benchmem
// prints for the single-goroutine engine rows.
type kernelRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

// kernelBenchFile is the before/after record: "baseline" is the seed
// evaluator, "current" the zero-allocation kernel.
type kernelBenchFile struct {
	Baseline []kernelRow `json:"baseline"`
	Current  []kernelRow `json:"current"`
}

// kernelMeasure runs one sub-benchmark and records its row. b.Run retries
// with growing b.N; keying by name keeps the final, most stable run.
func kernelMeasure(b *testing.B, rows map[string]kernelRow, name string, fn func(i int) error) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := fn(i); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		rows[name] = kernelRow{
			Name:        name,
			NsPerOp:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N),
			AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(b.N),
			Ops:         b.N,
		}
	})
}

func BenchmarkSearchKernel(b *testing.B) {
	rows := make(map[string]kernelRow)
	var order []string
	measure := func(name string, fn func(i int) error) {
		order = append(order, name)
		kernelMeasure(b, rows, name, fn)
	}

	e := kernelBenchEngine(b)
	const rankQuery = "w1 w2 w3 w4 w5 w6 w7 w8"
	for _, k := range []int{10, 100} {
		k := k
		measure("Engine/Rank/k="+strconv.Itoa(k), func(int) error {
			_, err := e.Rank(rankQuery, k, nil)
			return err
		})
	}

	targets := []uint32{10, 500, 900, 2500, 4000, 4500}
	measure("Engine/ScoreDocs", func(int) error {
		_, err := e.ScoreDocs(rankQuery, targets, nil)
		return err
	})

	// Deployment-level rows share bench_test.go's reduced-corpus runner.
	r := runner(b)
	queries := r.Corpus.QueriesOf(trecsynth.ShortQuery)
	if _, err := r.GroupedIndex(10); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		label string
		mode  core.Mode
		opts  core.Options
	}{
		{"MS", core.ModeMS, core.Options{}},
		{"CN", core.ModeCN, core.Options{}},
		{"CV", core.ModeCV, core.Options{}},
		{"CI", core.ModeCI, core.Options{KPrime: 100}},
	} {
		mode := mode
		for _, k := range []int{10, 100} {
			k := k
			measure(mode.label+"/k="+strconv.Itoa(k), func(i int) error {
				q := queries[i%len(queries)]
				if mode.mode == core.ModeMS {
					_, _, err := r.Run(experiments.RunSpec{Label: mode.label, Mode: core.ModeMS}, []trecsynth.Query{q}, k, mode.opts)
					return err
				}
				_, err := r.Pool().Query(mode.mode, q.Text, k, mode.opts)
				return err
			})
		}
	}

	section := os.Getenv("KERNEL_BENCH_SECTION")
	if section == "" || len(rows) == 0 {
		return
	}
	out := make([]kernelRow, 0, len(rows))
	for _, name := range order {
		if row, ok := rows[name]; ok {
			out = append(out, row)
		}
	}
	var file kernelBenchFile
	if data, err := os.ReadFile("BENCH_search.json"); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			b.Fatalf("BENCH_search.json: %v", err)
		}
	}
	switch section {
	case "baseline":
		file.Baseline = out
	case "current":
		file.Current = out
	default:
		b.Fatalf("KERNEL_BENCH_SECTION must be baseline or current, got %q", section)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_search.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote BENCH_search.json section %q (%d rows)", section, len(out))
}
