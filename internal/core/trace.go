// Package core implements the paper's contribution: the receptionist that
// brokers ranked queries to independent librarians under the three federated
// methodologies — Central Nothing (CN), Central Vocabulary (CV) and Central
// Index (CI) — plus a mono-server (MS) baseline wrapper.
//
// Every query records a Trace of the protocol exchange (message sizes,
// round trips, librarian-side evaluation statistics). Traces feed package
// costmodel, which converts them into elapsed-time estimates for the
// mono-disk / multi-disk / LAN / WAN configurations of Tables 3 and 4.
package core

import (
	"fmt"
	"time"

	"teraphim/internal/protocol"
	"teraphim/internal/search"
)

// Mode selects the distributed methodology for a query.
type Mode int

// Methodologies. ModeMS is handled by MonoServer; the receptionist accepts
// the other three.
const (
	ModeMS Mode = iota + 1
	ModeCN
	ModeCV
	ModeCI
)

func (m Mode) String() string {
	switch m {
	case ModeMS:
		return "MS"
	case ModeCN:
		return "CN"
	case ModeCV:
		return "CV"
	case ModeCI:
		return "CI"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Phase labels the stage of query evaluation a call belongs to, matching the
// numbered steps of §3 of the paper.
type Phase int

// Phases of query evaluation.
const (
	PhaseSetup Phase = iota + 1 // establishing parameters (vocab, models)
	PhaseRank                   // steps 1–3: query shipping and ranking
	PhaseFetch                  // step 4: document retrieval
)

func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "setup"
	case PhaseRank:
		return "rank"
	case PhaseFetch:
		return "fetch"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Call records one request/response exchange with a librarian.
type Call struct {
	Librarian string
	// Replica is the endpoint that served this exchange — equal to
	// Librarian in an unreplicated pool.
	Replica string
	// Hedge marks a speculative duplicate exchange raced against a slow
	// primary (Options.HedgeAfter). Hedges are extra traffic, not retries:
	// RetryAttempts skips them.
	Hedge     bool
	Phase     Phase
	ReqType   protocol.MsgType
	ReqBytes  int
	RespBytes int
	// BatchSize is how many queries shared the wire frame that carried this
	// exchange (Options.BatchWindow coalescing); zero means the exchange had
	// its own frame. ReqBytes/RespBytes are this query's encoded items plus
	// an even share of the batch framing overhead.
	BatchSize int

	// LibStats is the librarian-side evaluation work (rank/score calls).
	LibStats search.Stats
	// DocsFetched and DocBytes describe the documents a reply carried: a
	// FetchReply's, or those attached to a rank reply.
	DocsFetched int
	DocBytes    int

	// Ship is the time spent writing the request onto the wire; Wait spans
	// from the end of the write until the reply is fully read, i.e. the
	// librarian's evaluation plus the reply transfer.
	Ship time.Duration
	Wait time.Duration
}

// Failure records one librarian that could not complete an exchange: the
// original attempt plus every retry failed, and the query proceeded (or
// aborted) without it.
type Failure struct {
	Librarian string
	Phase     Phase
	// Attempts is the number of exchanges tried before giving up (1 when
	// retries were not configured or the error was not retryable).
	Attempts int
	Err      error
}

// StageTimings is the wall-clock decomposition of one query, mirroring the
// cost-model stages: Analyze is central work before any librarian is
// contacted (CV/CI global weighting, CI group ranking); Ship is request
// writing and Wait is librarian evaluation plus reply reading, each taken
// as the maximum across the librarians contacted in parallel (attempts of
// one librarian sum — retries lengthen its critical path); Merge is central
// collation of the replies.
type StageTimings struct {
	Analyze time.Duration
	Ship    time.Duration
	Wait    time.Duration
	Merge   time.Duration
}

// Trace is the complete record of one query's distributed evaluation.
type Trace struct {
	Mode  Mode
	Calls []Call

	// Stages is the per-stage wall-clock breakdown of this query.
	Stages StageTimings

	// CentralStats is receptionist-side index work (CI group ranking; zero
	// otherwise).
	CentralStats search.Stats
	// MergeCandidates is the number of scored documents merged centrally.
	MergeCandidates int
	// LibrariansAsked counts librarians contacted in the rank phase.
	LibrariansAsked int
	// LibrariansSelected counts librarians the top-R collection-selection
	// ranker picked for this query; zero when selection was off
	// (Options.TopR <= 0). Selection is the last filter before contact (it
	// runs after CV/CI's own eligibility filters), so when it ran this
	// equals LibrariansAsked — the field distinguishes "asked few because
	// selection narrowed the fan-out" from "asked few anyway".
	LibrariansSelected int

	// LocalDocsFetched and LocalDocBytes account for documents the MS
	// baseline reads from its own disk (no network involved).
	LocalDocsFetched int
	LocalDocBytes    int

	// Hedges counts hedged exchanges launched for this query — the primary
	// outlived its latency-quantile budget and a second replica was raced
	// (only hedges that actually got a free connection slot count).
	// HedgeWins counts those whose reply arrived first and was used.
	Hedges    int
	HedgeWins int

	// PiggybackedDocs counts answers of a Fetch query whose document arrived
	// attached to a rank reply; FallbackFetches counts the librarians that
	// had to be sent a FetchDocs for the rest. A query answered in one
	// exchange per librarian has FallbackFetches == 0.
	PiggybackedDocs int
	FallbackFetches int

	// Failures records librarians that failed every attempt of an exchange,
	// whether or not the query went on to succeed from the survivors.
	Failures []Failure
	// Degraded marks a query answered from a surviving subset of librarians
	// (some Failures occurred but Options allowed a partial result).
	Degraded bool
	// CacheHit marks a query answered from the receptionist result cache:
	// zero librarian exchanges, zero bytes moved — Calls, Stages and the
	// other cost fields describe this (free) evaluation, not the original
	// one that populated the cache.
	CacheHit bool
}

// RoundTrips counts request/response exchanges in the given phase (all
// phases when phase is 0). Calls to distinct librarians within a phase
// happen in parallel; this count is total message-pair volume, not depth.
func (t *Trace) RoundTrips(phase Phase) int {
	n := 0
	for _, c := range t.Calls {
		if phase == 0 || c.Phase == phase {
			n++
		}
	}
	return n
}

// BytesTransferred sums request+response bytes in the given phase (all
// phases when phase is 0).
func (t *Trace) BytesTransferred(phase Phase) int {
	n := 0
	for _, c := range t.Calls {
		if phase == 0 || c.Phase == phase {
			n += c.ReqBytes + c.RespBytes
		}
	}
	return n
}

// RetryAttempts counts exchanges beyond each librarian's first attempt in a
// phase — the extra network work fault tolerance cost this query, whether
// the retries eventually succeeded or not. Hedge exchanges are excluded:
// a hedge races the same attempt on a second replica rather than repeating
// a failed one, and is accounted separately in Trace.Hedges.
func (t *Trace) RetryAttempts() int {
	type key struct {
		phase Phase
		lib   string
	}
	counts := make(map[key]int, len(t.Calls))
	for _, c := range t.Calls {
		if c.Hedge {
			continue
		}
		counts[key{c.Phase, c.Librarian}]++
	}
	n := 0
	for _, cnt := range counts {
		if cnt > 1 {
			n += cnt - 1
		}
	}
	return n
}

// LibrarianWork aggregates librarian-side evaluation statistics, the
// "overall use of resources" quantity the paper's efficiency analysis
// discusses.
func (t *Trace) LibrarianWork() search.Stats {
	var total search.Stats
	for _, c := range t.Calls {
		total.Add(c.LibStats)
	}
	return total
}
