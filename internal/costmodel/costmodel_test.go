package costmodel

import (
	"testing"
	"time"

	"teraphim/internal/core"
	"teraphim/internal/search"
	"teraphim/internal/simdisk"
)

// sampleTrace builds a CN-style trace: three librarians ranked in parallel,
// then two fetched from.
func sampleTrace() *core.Trace {
	stats := func(postings uint64, lists int) search.Stats {
		return search.Stats{
			TermsLooked:     5,
			ListsFetched:    lists,
			PostingsDecoded: postings,
			IndexBytesRead:  postings / 4,
			CandidateDocs:   int(postings / 10),
		}
	}
	return &core.Trace{
		Mode: core.ModeCN,
		Calls: []core.Call{
			{Librarian: "AP", Phase: core.PhaseRank, ReqBytes: 120, RespBytes: 700, LibStats: stats(20000, 5)},
			{Librarian: "FR", Phase: core.PhaseRank, ReqBytes: 120, RespBytes: 600, LibStats: stats(8000, 5)},
			{Librarian: "WSJ", Phase: core.PhaseRank, ReqBytes: 120, RespBytes: 650, LibStats: stats(15000, 5)},
			{Librarian: "AP", Phase: core.PhaseFetch, ReqBytes: 60, RespBytes: 24000, DocsFetched: 12, DocBytes: 23000},
			{Librarian: "WSJ", Phase: core.PhaseFetch, ReqBytes: 50, RespBytes: 16000, DocsFetched: 8, DocBytes: 15000},
		},
		MergeCandidates: 60,
	}
}

func TestEstimatePositive(t *testing.T) {
	trace := sampleTrace()
	for _, cfg := range AllConfigs() {
		b, err := Estimate(cfg, trace)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if b.Rank <= 0 || b.Fetch <= 0 {
			t.Errorf("%s: breakdown %+v not positive", cfg.Name, b)
		}
		if b.Total() != b.Rank+b.Fetch {
			t.Errorf("%s: Total != Rank+Fetch", cfg.Name)
		}
	}
}

// TestConfigurationOrdering pins the paper's qualitative Table 3 result:
// multi-disk is faster than mono-disk, and the WAN is much slower than
// everything else.
func TestConfigurationOrdering(t *testing.T) {
	trace := sampleTrace()
	times := map[string]time.Duration{}
	for _, cfg := range AllConfigs() {
		b, err := Estimate(cfg, trace)
		if err != nil {
			t.Fatal(err)
		}
		times[cfg.Name] = b.Rank
	}
	if times["multi-disk"] >= times["mono-disk"] {
		t.Errorf("multi-disk %v not faster than mono-disk %v", times["multi-disk"], times["mono-disk"])
	}
	if times["WAN"] < 3*times["LAN"] {
		t.Errorf("WAN %v not much slower than LAN %v", times["WAN"], times["LAN"])
	}
}

// TestWANLatencyDominates pins the paper's conclusion that wide-area
// response is dominated by network delay, not computation.
func TestWANLatencyDominates(t *testing.T) {
	trace := sampleTrace()
	wan := WAN()
	b, err := Estimate(wan, trace)
	if err != nil {
		t.Fatal(err)
	}
	// The slowest site (WSJ at 1.04s RTT, 3 RTTs per call) alone
	// contributes >3s per phase; computation is tens of milliseconds.
	if b.Rank < 3*time.Second {
		t.Errorf("WAN rank %v: latency should dominate (>3s)", b.Rank)
	}
	noNet := wan
	noNet.Links = nil
	noNet.DefaultLink = Link{}
	b2, err := Estimate(noNet, trace)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Rank*5 > b.Rank {
		t.Errorf("computation %v is not small next to WAN total %v", b2.Rank, b.Rank)
	}
}

func TestSharedDiskSerialises(t *testing.T) {
	trace := sampleTrace()
	mono, err := Estimate(MonoDisk(), trace)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Estimate(MultiDisk(), trace)
	if err != nil {
		t.Fatal(err)
	}
	// The three librarians' disk work serialises (and pays contention) on
	// one spindle: 15 positioned reads vs the slowest librarian's 5.
	diskUnit := simdisk.Era1995().Seek
	if mono.Rank-multi.Rank < 5*diskUnit {
		t.Errorf("mono-disk %v vs multi-disk %v: shared-disk penalty too small", mono.Rank, multi.Rank)
	}
}

func TestMSTrace(t *testing.T) {
	// An MS query has no calls; cost is purely central.
	trace := &core.Trace{
		Mode: core.ModeMS,
		CentralStats: search.Stats{
			TermsLooked:     5,
			ListsFetched:    5,
			PostingsDecoded: 43000,
			IndexBytesRead:  11000,
			CandidateDocs:   4000,
		},
		MergeCandidates: 20,
	}
	b, err := Estimate(MonoDisk(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank <= 0 {
		t.Fatal("MS rank time not positive")
	}
	if b.Fetch != 0 {
		t.Fatalf("MS with no fetch calls has fetch time %v", b.Fetch)
	}
}

func TestSetupPhaseSeparated(t *testing.T) {
	trace := &core.Trace{
		Calls: []core.Call{
			{Librarian: "AP", Phase: core.PhaseSetup, ReqBytes: 10, RespBytes: 100000},
		},
	}
	b, err := Estimate(LAN(), trace)
	if err != nil {
		t.Fatal(err)
	}
	if b.Setup <= 0 {
		t.Fatal("setup time not recorded")
	}
	if b.Rank != 0 || b.Fetch != 0 {
		t.Fatal("setup leaked into rank/fetch")
	}
}

func TestLinkTimeFor(t *testing.T) {
	l := Link{RTT: 100 * time.Millisecond, Bandwidth: 1000}
	// 1 RTT + 500 bytes at 1000 B/s.
	if got := l.timeFor(500); got != 600*time.Millisecond {
		t.Fatalf("timeFor = %v, want 600ms", got)
	}
	l.RTTsPerCall = 3
	if got := l.timeFor(0); got != 300*time.Millisecond {
		t.Fatalf("timeFor with 3 RTTs = %v, want 300ms", got)
	}
	unlimited := Link{}
	if got := unlimited.timeFor(1 << 30); got != 0 {
		t.Fatalf("unlimited link = %v", got)
	}
}

func TestDecompressCharged(t *testing.T) {
	trace := &core.Trace{
		Calls: []core.Call{
			{Librarian: "AP", Phase: core.PhaseFetch, DocsFetched: 1, DocBytes: 20 << 20, RespBytes: 20 << 20},
		},
	}
	cfg := MultiDisk()
	b, err := Estimate(cfg, trace)
	if err != nil {
		t.Fatal(err)
	}
	// 20 MB at 20 MB/s = 1s of decompression alone.
	if b.Fetch < time.Second {
		t.Fatalf("decompression undercharged: fetch = %v", b.Fetch)
	}
}

func TestInvalidDisk(t *testing.T) {
	cfg := MultiDisk()
	cfg.Disk.Seek = -1
	if _, err := Estimate(cfg, &core.Trace{}); err == nil {
		t.Fatal("invalid disk: want error")
	}
}

func TestWANSitesComplete(t *testing.T) {
	for _, name := range []string{"AP", "FR", "WSJ", "ZIFF"} {
		if WANSites[name] == 0 {
			t.Errorf("no WAN RTT for %s", name)
		}
		if WANHops[name] == 0 {
			t.Errorf("no WAN hops for %s", name)
		}
	}
	// Table 2 ordering: Israel slowest, Brisbane fastest.
	if WANSites["WSJ"] <= WANSites["FR"] || WANSites["AP"] >= WANSites["ZIFF"] {
		t.Error("WAN RTTs do not match Table 2 ordering")
	}
}

// TestRetriedCallsSerialisePerLibrarian pins the fault-tolerance accounting:
// a librarian's retried exchanges serialise on its own link, so a trace
// carrying an extra (failed) rank attempt at one librarian can only cost
// more, and on a latency-dominated configuration it must cost strictly more.
func TestRetriedCallsSerialisePerLibrarian(t *testing.T) {
	single := sampleTrace()
	retried := sampleTrace()
	// A timed-out first attempt at the slowest WAN site (WSJ, Tel Aviv):
	// the request went out, nothing came back.
	retried.Calls = append(retried.Calls,
		core.Call{Librarian: "WSJ", Phase: core.PhaseRank, ReqBytes: 120})
	for _, cfg := range AllConfigs() {
		bSingle, err := Estimate(cfg, single)
		if err != nil {
			t.Fatal(err)
		}
		bRetried, err := Estimate(cfg, retried)
		if err != nil {
			t.Fatal(err)
		}
		if bRetried.Rank < bSingle.Rank {
			t.Errorf("%s: retried rank %v < single %v", cfg.Name, bRetried.Rank, bSingle.Rank)
		}
		if cfg.Name == "WAN" && bRetried.Rank <= bSingle.Rank {
			t.Errorf("WAN: retried attempt did not add elapsed time (%v vs %v)",
				bRetried.Rank, bSingle.Rank)
		}
	}
}

// TestOneExchangeTrace: a query whose rank replies carried the documents
// (core's default, one-exchange fetch) moves the same bytes and reads the same disk
// blocks as the two-round query, so its documents must be charged — to the
// rank phase, there being no other — and the estimate must come out exactly
// one network contact cheaper.
func TestOneExchangeTrace(t *testing.T) {
	stats := search.Stats{TermsLooked: 5, ListsFetched: 5, PostingsDecoded: 20000, IndexBytesRead: 5000, CandidateDocs: 2000}
	twoRound := &core.Trace{Mode: core.ModeCV, MergeCandidates: 20, Calls: []core.Call{
		{Librarian: "AP", Phase: core.PhaseRank, ReqBytes: 120, RespBytes: 700, LibStats: stats},
		{Librarian: "AP", Phase: core.PhaseFetch, ReqBytes: 60, RespBytes: 24000, DocsFetched: 12, DocBytes: 23000},
	}}
	oneExchange := &core.Trace{Mode: core.ModeCV, MergeCandidates: 20, PiggybackedDocs: 12, Calls: []core.Call{
		{Librarian: "AP", Phase: core.PhaseRank, ReqBytes: 120 + 60, RespBytes: 700 + 24000, LibStats: stats, DocsFetched: 12, DocBytes: 23000},
	}}
	for _, cfg := range AllConfigs() {
		two, err := Estimate(cfg, twoRound)
		if err != nil {
			t.Fatal(err)
		}
		one, err := Estimate(cfg, oneExchange)
		if err != nil {
			t.Fatal(err)
		}
		if one.Fetch != 0 {
			t.Errorf("%s: a trace without fetch calls is charged %v of fetch", cfg.Name, one.Fetch)
		}
		docs := one.Rank - two.Rank
		if docs <= 0 {
			t.Errorf("%s: rank phase %v with 23 kB of documents attached, %v without: the documents cost nothing", cfg.Name, one.Rank, two.Rank)
		}
		contact := cfg.linkFor("AP").timeFor(0)
		if saved := two.Total() - one.Total(); saved < contact-time.Microsecond || saved > contact+time.Microsecond {
			t.Errorf("%s: one exchange saves %v over two rounds, want the %v of one network contact", cfg.Name, saved, contact)
		}
	}
}
