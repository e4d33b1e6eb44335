package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"teraphim/internal/core"
)

// A span is one timed interval at a layer boundary. Spans of one query share
// Query (its position in the traced pass); Parent is the id of the span that
// caused this one, -1 for a root. Times are nanoseconds since the recorder
// started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
	Name   string `json:"name"`
	Lib    string `json:"lib,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; nothing is written until the run ends, so
// recording costs one append per span. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) add(parent, query int32, name, lib string, start, end time.Time) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Query: query, Name: name, Lib: lib,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// Span names of the query tree. The root is measured around
// Session.QueryContext; everything below it is synthesised from the Trace
// the call returned, because this change may not put spans inside the
// program: durations are the program's own, start offsets are nominal
// (stages laid end to end from the root's start, calls of one phase starting
// together).
const (
	spanQuery   = "core.query"
	spanAnalyze = "core.stage.analyze"
	spanShip    = "core.stage.ship"
	spanWait    = "core.stage.wait"
	spanMerge   = "core.stage.merge"
	spanCallOut = "protocol.ship"
	spanCallIn  = "librarian.wait"
)

// addQuery records the span tree of one completed query.
func (r *recorder) addQuery(query int32, start, end time.Time, tr *core.Trace) {
	root := r.add(-1, query, spanQuery, "", start, end)
	at := start
	stage := func(name string, d time.Duration) (int32, time.Time) {
		id := r.add(root, query, name, "", at, at.Add(d))
		begin := at
		at = at.Add(d)
		return id, begin
	}
	stage(spanAnalyze, tr.Stages.Analyze)
	ship, shipAt := stage(spanShip, tr.Stages.Ship)
	wait, waitAt := stage(spanWait, tr.Stages.Wait)
	stage(spanMerge, tr.Stages.Merge)
	// Calls of the fetch phase start once the slowest rank-phase call ended.
	var rankShip, rankWait time.Duration
	for _, c := range tr.Calls {
		if c.Phase == core.PhaseRank {
			rankShip = max(rankShip, c.Ship)
			rankWait = max(rankWait, c.Wait)
		}
	}
	for _, c := range tr.Calls {
		s, w := shipAt, waitAt
		if c.Phase == core.PhaseFetch {
			s, w = s.Add(rankShip), w.Add(rankWait)
		}
		r.add(ship, query, spanCallOut, c.Librarian, s, s.Add(c.Ship))
		r.add(wait, query, spanCallIn, c.Librarian, w, w.Add(c.Wait))
	}
}

// selfStat aggregates one span name.
type selfStat struct {
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	SelfUs float64 `json:"self_mean_us"`
}

// selfTimes returns, per span name, the mean duration and the mean self
// time: the span's duration minus the part of its interval that its child
// spans cover. Children may overlap (calls to several librarians run in
// parallel), so coverage is the union of their intervals clipped to the
// parent.
func selfTimes(spans []span) map[string]selfStat {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	type acc struct {
		n         int
		dur, self int64
	}
	sums := make(map[string]*acc)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].Start < spans[kids[j]].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		a := sums[s.Name]
		if a == nil {
			a = &acc{}
			sums[s.Name] = a
		}
		a.n++
		a.dur += s.End - s.Start
		a.self += s.End - s.Start - covered
	}
	out := make(map[string]selfStat, len(sums))
	for name, a := range sums {
		out[name] = selfStat{
			Count:  a.n,
			MeanUs: float64(a.dur) / float64(a.n) / 1e3,
			SelfUs: float64(a.self) / float64(a.n) / 1e3,
		}
	}
	return out
}

// traceFileQueries bounds how many query trees the trace file holds: the
// aggregates cover every traced query, the file is for reading single ones.
const traceFileQueries = 512

// writeTrace writes the recorded spans of one workload to
// <dir>/<workload>.trace.json.
func (r *recorder) writeTrace(dir, workload string, seed int64) error {
	kept := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.Query < traceFileQueries {
			kept = append(kept, s)
		}
	}
	doc := struct {
		Workload string              `json:"workload"`
		Seed     int64               `json:"seed"`
		Note     string              `json:"note"`
		Spans    int                 `json:"spans_recorded"`
		Self     map[string]selfStat `json:"by_name"`
		Kept     []span              `json:"spans"`
	}{
		Workload: workload, Seed: seed,
		Note:  "times in ns since the recorder started; by_name covers every recorded span, spans holds queries below 512",
		Spans: len(r.spans), Self: selfTimes(r.spans), Kept: kept,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
