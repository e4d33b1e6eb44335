// Package costmodel converts query traces (package core) into elapsed-time
// estimates for the paper's four deployment configurations: mono-disk,
// multi-disk, LAN and WAN (Tables 3 and 4).
//
// The model replays the *measured* protocol exchange — real message sizes,
// real librarian evaluation statistics — against an analytic machine model:
// CPU cost per posting processed, disk positioning and transfer costs
// (package simdisk), and per-link round-trip and bandwidth costs. Librarians
// work in parallel within a phase; a phase completes when its slowest
// librarian completes; disk operations serialise when librarians share one
// spindle (the mono-disk configuration). This is the same style of
// trace-driven performance derivation Cahoon & McKinley used for the
// distributed INQUERY architecture (SIGIR'96).
package costmodel

import (
	"fmt"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/search"
	"teraphim/internal/simdisk"
)

// CPUModel holds per-operation CPU costs, representative of the paper's
// mid-1990s SPARC workstations.
type CPUModel struct {
	PerPosting     time.Duration // decode one posting and update accumulator
	PerCandidate   time.Duration // heap maintenance per candidate document
	PerMergeItem   time.Duration // receptionist merge per scored document
	PerQueryTerm   time.Duration // dictionary lookup per query term
	DecompressRate float64       // document decompression, bytes per second
}

// Era1995CPU returns CPU constants for a ~60 MHz SuperSPARC.
func Era1995CPU() CPUModel {
	return CPUModel{
		PerPosting:     2 * time.Microsecond,
		PerCandidate:   400 * time.Nanosecond,
		PerMergeItem:   500 * time.Nanosecond,
		PerQueryTerm:   50 * time.Microsecond,
		DecompressRate: 20 << 20, // 20 MB/s
	}
}

// Link models the connection between the receptionist and one librarian.
type Link struct {
	// RTT is the round-trip time of one packet exchange (the paper's
	// "ping" column in Table 2).
	RTT time.Duration
	// Bandwidth is the usable link throughput in bytes per second; zero
	// means effectively unlimited.
	Bandwidth float64
	// RTTsPerCall is the number of round-trip times charged per
	// request/response exchange, accounting for connection handshaking and
	// TCP slow start on long-haul links. Zero selects 1.
	RTTsPerCall float64
}

func (l Link) timeFor(bytes int) time.Duration {
	rtts := l.RTTsPerCall
	if rtts <= 0 {
		rtts = 1
	}
	d := time.Duration(rtts * float64(l.RTT))
	if l.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / l.Bandwidth * float64(time.Second))
	}
	return d
}

// Config is one deployment configuration.
type Config struct {
	Name string
	// DefaultLink applies to librarians without an entry in Links.
	DefaultLink Link
	// Links holds per-librarian link parameters (the WAN configuration
	// gives each remote site its own RTT).
	Links map[string]Link
	// Disk is the drive model at every site.
	Disk simdisk.Model
	// SharedDisk marks the mono-disk configuration: all librarians (and
	// the receptionist) contend for a single spindle, so their disk
	// operations serialise and — when more than one is active — pay the
	// contention penalty ("the librarians interfere with each other by
	// repositioning the disk head unpredictably").
	SharedDisk bool
	// CPU holds per-operation processing costs.
	CPU CPUModel
	// WorkScale linearly scales per-posting index work (postings decoded,
	// index bytes read, accumulators) recorded in the trace. The default 0
	// means 1 (no scaling). The experiments set it to
	// paperCorpusDocs/actualCorpusDocs so that elapsed times replay the
	// measured traces at the paper's TREC-disk-2 scale; message sizes and
	// round trips are never scaled (they depend on k, not corpus size).
	WorkScale float64
}

func (c Config) scale() float64 {
	if c.WorkScale <= 0 {
		return 1
	}
	return c.WorkScale
}

// scaleStats applies the configuration's work scale to index-work counters.
func (c Config) scaleStats(s search.Stats) search.Stats {
	f := c.scale()
	if f == 1 {
		return s
	}
	s.PostingsDecoded = uint64(float64(s.PostingsDecoded) * f)
	s.IndexBytesRead = uint64(float64(s.IndexBytesRead) * f)
	return s
}

func (c Config) linkFor(name string) Link {
	if l, ok := c.Links[name]; ok {
		return l
	}
	return c.DefaultLink
}

// Breakdown is the estimated elapsed time of one query, split the way
// Tables 3 and 4 split it.
type Breakdown struct {
	// Setup covers pre-query exchanges recorded in the trace (usually
	// excluded from per-query figures).
	Setup time.Duration
	// Rank covers steps 1–3: shipping the query, librarian index
	// processing, returning and merging rankings. This is the Table 3
	// quantity.
	Rank time.Duration
	// Fetch covers step 4: retrieving answer documents. Rank+Fetch is the
	// Table 4 quantity.
	Fetch time.Duration
}

// Total returns Rank+Fetch (the Table 4 elapsed time).
func (b Breakdown) Total() time.Duration { return b.Rank + b.Fetch }

// Estimate derives the elapsed-time breakdown of one query trace under the
// configuration.
func Estimate(cfg Config, trace *core.Trace) (Breakdown, error) {
	if err := cfg.Disk.Validate(); err != nil {
		return Breakdown{}, fmt.Errorf("costmodel: %w", err)
	}
	var b Breakdown
	b.Setup = estimatePhase(cfg, trace, core.PhaseSetup)
	b.Rank = estimatePhase(cfg, trace, core.PhaseRank)
	// Central work: the receptionist's own index processing (CI group
	// ranking, or the whole query for MS) plus result merging.
	b.Rank += centralTime(cfg, trace)
	// Documents are charged to the phase whose replies carried them: a
	// one-exchange query (rank replies with the text attached) pays their
	// disk reads, transfer and decompression under Rank and has no Fetch.
	b.Rank += decompressTime(cfg, trace, core.PhaseRank)
	b.Fetch = estimatePhase(cfg, trace, core.PhaseFetch)
	b.Fetch += decompressTime(cfg, trace, core.PhaseFetch)
	// MS-style local fetches: disk reads and decompression at the server
	// itself, no network.
	if trace.LocalDocsFetched > 0 {
		bytes := uint64(trace.LocalDocBytes)
		if cfg.SharedDisk {
			b.Fetch += cfg.Disk.SharedAccessTime(trace.LocalDocsFetched, bytes)
		} else {
			b.Fetch += cfg.Disk.AccessTime(trace.LocalDocsFetched, bytes)
		}
		if cfg.CPU.DecompressRate > 0 {
			b.Fetch += time.Duration(float64(bytes) / cfg.CPU.DecompressRate * float64(time.Second))
		}
	}
	return b, nil
}

// estimatePhase computes the elapsed time of one phase: librarians run in
// parallel, so the phase takes as long as its slowest librarian. A librarian
// may have several calls in a phase — retried exchanges under the
// fault-tolerance policy — and those serialise on its link, so per-librarian
// costs are summed across attempts before taking the maximum. On a shared
// disk, all disk work additionally serialises across librarians.
func estimatePhase(cfg Config, trace *core.Trace, phase core.Phase) time.Duration {
	// Contention applies only when more than one reader is actually
	// active on the shared spindle during the phase.
	perLib := make(map[string]time.Duration)
	for _, call := range trace.Calls {
		if call.Phase == phase {
			perLib[call.Librarian] = 0
		}
	}
	contended := cfg.SharedDisk && len(perLib) > 1
	var sharedDisk time.Duration
	for _, call := range trace.Calls {
		if call.Phase != phase {
			continue
		}
		link := cfg.linkFor(call.Librarian)
		network := link.timeFor(call.ReqBytes + call.RespBytes)
		cpu := libCPU(cfg, call)
		disk := libDisk(cfg, call, contended)
		if cfg.SharedDisk {
			sharedDisk += disk
			disk = 0
		}
		perLib[call.Librarian] += network + cpu + disk
	}
	var slowest time.Duration
	for _, t := range perLib {
		if t > slowest {
			slowest = t
		}
	}
	return slowest + sharedDisk
}

// libCPU is the librarian-side processing cost of one call.
func libCPU(cfg Config, call core.Call) time.Duration {
	s := cfg.scaleStats(call.LibStats)
	cpu := cfg.CPU
	d := time.Duration(s.PostingsDecoded) * cpu.PerPosting
	d += time.Duration(s.CandidateDocs) * cpu.PerCandidate
	d += time.Duration(s.TermsLooked) * cpu.PerQueryTerm
	return d
}

// libDisk is the librarian-side disk cost of one call: one positioned read
// per inverted list evaluated and one per document the reply carried.
func libDisk(cfg Config, call core.Call, contended bool) time.Duration {
	s := cfg.scaleStats(call.LibStats)
	accesses := s.ListsFetched + call.DocsFetched
	bytes := s.IndexBytesRead + uint64(call.DocBytes)
	if accesses == 0 && bytes == 0 {
		return 0
	}
	if contended {
		return cfg.Disk.SharedAccessTime(accesses, bytes)
	}
	return cfg.Disk.AccessTime(accesses, bytes)
}

// centralTime is the receptionist's own processing: central index work (MS
// whole-query evaluation or CI group ranking) plus merging. The central
// phase runs while librarians are idle, so its disk reads never pay the
// contention penalty.
func centralTime(cfg Config, trace *core.Trace) time.Duration {
	s := cfg.scaleStats(trace.CentralStats)
	d := statsCPU(cfg.CPU, s)
	d += time.Duration(trace.MergeCandidates) * cfg.CPU.PerMergeItem
	if s.ListsFetched > 0 || s.IndexBytesRead > 0 {
		d += cfg.Disk.AccessTime(s.ListsFetched, s.IndexBytesRead)
	}
	return d
}

func statsCPU(cpu CPUModel, s search.Stats) time.Duration {
	d := time.Duration(s.PostingsDecoded) * cpu.PerPosting
	d += time.Duration(s.CandidateDocs) * cpu.PerCandidate
	d += time.Duration(s.TermsLooked) * cpu.PerQueryTerm
	return d
}

// decompressTime charges the receptionist for expanding the compressed
// documents one phase's replies carried.
func decompressTime(cfg Config, trace *core.Trace, phase core.Phase) time.Duration {
	if cfg.CPU.DecompressRate <= 0 {
		return 0
	}
	var bytes int
	for _, call := range trace.Calls {
		if call.Phase == phase {
			bytes += call.DocBytes
		}
	}
	return time.Duration(float64(bytes) / cfg.CPU.DecompressRate * float64(time.Second))
}
