// Command benchmark is the one benchmark of TERAPHIM-Go: four named
// workloads, end-to-end metrics with regression bounds, and a per-layer
// budget that sums to the query. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -selfcheck            the whole set twice; fail if the two disagree
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	                                         one run; the last line of output is its result
//
// Everything is measured from outside the program: spans are recorded here,
// around calls into public functions and from the Trace the query API
// returns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

func main() {
	var (
		name      = flag.String("workload", "", "run one workload and print its result as the last line; empty runs all four")
		seed      = flag.Int64("seed", 1998, "drives the corpus generator and the query and writer schedules")
		seconds   = flag.Float64("seconds", 10, "length of the measured window of one run")
		trace     = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the whole set twice and fail if the two runs disagree beyond the bounds")
		smoke     = flag.Bool("smoke", false, "tiny corpus and 1 s windows: drives every code path in seconds")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and results.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	base := runConfig{seed: *seed, seconds: *seconds, sz: fullSizes, outDir: *outDir}
	if *smoke {
		base.sz, base.seconds = smokeSizes, 1
	}
	if base.seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	switch {
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("--trace must be 0 or 1"))
		}
		rc := base
		rc.w, rc.trace = w, *trace == 1
		printStamp(os.Stdout, rc)
		res, err := runOne(rc)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stdout)
		line, err := json.Marshal(res.contractLine())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	case *selfcheck:
		first, err := runSet(os.Stdout, base)
		if err != nil {
			fatal(err)
		}
		second, err := runSet(os.Stdout, base)
		if err != nil {
			fatal(err)
		}
		if problems := compareSets(os.Stdout, first, second); problems > 0 {
			fatal(fmt.Errorf("selfcheck: %d metrics disagree between two runs of the same code", problems))
		}
		fmt.Println("selfcheck: passed")
	default:
		set, err := runSet(os.Stdout, base)
		if err != nil {
			fatal(err)
		}
		if err := writeResults(base, set); err != nil {
			fatal(err)
		}
		for _, res := range set {
			if res.Failed > 0 {
				fatal(fmt.Errorf("%s: %d of %d operations failed", res.Workload, res.Failed, res.Attempted))
			}
		}
	}
}

// fatal reports err and exits non-zero without printing a result line.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// stamp is the environment every output carries beside its metrics.
type stamp struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	// Claim is what the change carrying these numbers says it gained; the
	// change that defines the benchmark claims nothing.
	Claim *string `json:"claim"`
}

// commit is HEAD's short hash, or "unknown" outside a git repository (the
// driver's checkout is not one).
var commit = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
})

func makeStamp(rc runConfig) stamp {
	return stamp{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: rc.seed, Seconds: rc.seconds, Smoke: rc.sz.docDivisor > 1,
	}
}

func printStamp(out io.Writer, rc runConfig) {
	s := makeStamp(rc)
	fmt.Fprintf(out, "teraphim benchmark: commit=%s go=%s GOMAXPROCS=%d nproc=%d seed=%d seconds=%g smoke=%v\n",
		s.Commit, s.GoVersion, s.GOMAXPROCS, s.NProc, s.Seed, s.Seconds, s.Smoke)
}

// runSet runs every workload, untraced then traced, in this process.
func runSet(out io.Writer, base runConfig) ([]*result, error) {
	printStamp(out, base)
	var set []*result
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := base
			rc.w, rc.trace = w, traced
			res, err := runOne(rc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(out)
			set = append(set, res)
			// The next workload's setup_heap_mb must not see this one's garbage.
			debug.FreeOSMemory()
		}
	}
	return set, nil
}

// writeResults writes the whole set in one schema to <out>/results.json.
func writeResults(base runConfig, set []*result) error {
	doc := struct {
		Stamp   stamp     `json:"stamp"`
		Results []*result `json:"results"`
	}{makeStamp(base), set}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(base.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(base.outDir, "results.json"), append(data, '\n'), 0o644)
}

// compareSets is the selfcheck: two runs of the same binary must agree on
// every end-to-end metric within its bound, and on every exact count of a
// static workload exactly. It prints one line per comparison and returns how
// many failed.
func compareSets(out io.Writer, first, second []*result) int {
	problems := 0
	for i, a := range first {
		b := second[i]
		if !a.Trace {
			for _, spec := range endToEnd {
				va, vb := a.Metrics[spec.name], b.Metrics[spec.name]
				// Either run may be the "parent": neither direction may exceed the bound.
				diff := (vb - va) / va
				verdict := "ok"
				if math.Abs(diff) > spec.bound {
					verdict = "DISAGREE"
					problems++
				}
				fmt.Fprintf(out, "selfcheck %-15s %-18s %12.4f %12.4f %s  %+6.1f%% (bound %.0f%%) %s\n",
					a.Workload, spec.name, va, vb, spec.unit, 100*diff, 100*spec.bound, verdict)
			}
			continue
		}
		if findWorkload(a.Workload).ingest {
			continue // a live writer and a cache: counts there are not exact
		}
		for _, name := range exactCounts {
			verdict := "ok"
			if a.Metrics[name] != b.Metrics[name] {
				verdict = "DISAGREE"
				problems++
			}
			fmt.Fprintf(out, "selfcheck %-15s %-34s %14.4f %14.4f exact %s\n", a.Workload, name, a.Metrics[name], b.Metrics[name], verdict)
		}
	}
	return problems
}
