package librarian

import (
	"fmt"
	"time"

	"teraphim/internal/obs"
	"teraphim/internal/protocol"
	"teraphim/internal/search"
)

// libMetrics is one librarian's instrument set: the teraphim_librarian_*
// family tracks the serving loops, teraphim_ingest_* the producer/consumer
// pipeline and teraphim_segment_* the manifest shape and merge activity.
// Loaded through an atomic pointer, so Instrument may be called before or
// after serving starts and an uninstrumented librarian pays one nil check
// per session, batch and publication.
type libMetrics struct {
	activeSessions *obs.Gauge
	requests       *obs.Counter
	bytesIn        *obs.Counter
	bytesOut       *obs.Counter
	serviceTime    *obs.Histogram
	search         *search.Metrics

	docsQueued   *obs.Counter
	docsIndexed  *obs.Counter
	batches      *obs.Counter
	ingestErrors *obs.Counter
	queueFull    *obs.Counter
	queueLen     *obs.Gauge
	buildSeconds *obs.Histogram

	segmentsLive *obs.Gauge
	docsTotal    *obs.Gauge
	merges       *obs.Counter
	mergeSeconds *obs.Histogram
}

// observe records one answered request. Safe on a nil receiver — the
// serving loops call it unconditionally.
func (m *libMetrics) observe(read, wrote int, start time.Time, reply protocol.Message) {
	if m == nil {
		return
	}
	m.requests.Inc()
	m.bytesIn.Add(uint64(read))
	m.bytesOut.Add(uint64(wrote))
	m.serviceTime.ObserveDuration(time.Since(start))
	switch r := reply.(type) {
	case *protocol.RankReply:
		m.search.Observe(r.Stats)
	case *protocol.BooleanReply:
		m.search.Observe(r.Stats)
	case *protocol.BatchReply:
		for _, it := range r.Items {
			if rr, ok := it.(*protocol.RankReply); ok {
				m.search.Observe(rr.Stats)
			}
		}
	}
}

// Instrument registers this librarian's instruments on reg and starts
// recording: active sessions, request count, wire bytes in/out, per-request
// service time (read-to-write-complete), the evaluation work behind
// rank/score/boolean replies (postings decoded, candidates scored), the
// ingest queue and builder, and the segment count and merges. All series
// carry a librarian label, so several librarians can share one registry —
// the deployment the paper's receptionist federates over.
func (l *Librarian) Instrument(reg *obs.Registry) {
	labels := fmt.Sprintf("librarian=%q", l.name)
	m := &libMetrics{
		activeSessions: reg.Gauge("teraphim_librarian_active_sessions",
			"Protocol sessions currently being served.", labels),
		requests: reg.Counter("teraphim_librarian_requests_total",
			"Protocol requests answered (including ErrorReply answers).", labels),
		bytesIn: reg.Counter("teraphim_librarian_bytes_in_total",
			"Request bytes read off the wire.", labels),
		bytesOut: reg.Counter("teraphim_librarian_bytes_out_total",
			"Reply bytes written to the wire.", labels),
		serviceTime: reg.Histogram("teraphim_librarian_request_seconds",
			"Per-request service time: evaluation plus reply write.", labels, nil),
		search: search.NewMetrics(reg, labels),

		docsQueued: reg.Counter("teraphim_ingest_docs_queued_total",
			"Documents accepted onto the ingest queue.", labels),
		docsIndexed: reg.Counter("teraphim_ingest_docs_indexed_total",
			"Documents built into published segments.", labels),
		batches: reg.Counter("teraphim_ingest_batches_total",
			"Ingest batches built and published.", labels),
		ingestErrors: reg.Counter("teraphim_ingest_errors_total",
			"Ingest batches whose background build failed.", labels),
		queueFull: reg.Counter("teraphim_ingest_queue_full_total",
			"Ingest calls that found the queue full and had to wait.", labels),
		queueLen: reg.Gauge("teraphim_ingest_queue_depth",
			"Batches currently waiting on the ingest queue.", labels),
		buildSeconds: reg.Histogram("teraphim_ingest_build_seconds",
			"Per-segment build time (tokenize, index, compress).", labels, nil),

		segmentsLive: reg.Gauge("teraphim_segment_live",
			"Segments in the current manifest.", labels),
		docsTotal: reg.Gauge("teraphim_segment_docs",
			"Documents across the current manifest.", labels),
		merges: reg.Counter("teraphim_segment_merges_total",
			"Segment merges installed (background tiers and Compact).", labels),
		mergeSeconds: reg.Histogram("teraphim_segment_merge_seconds",
			"Per-merge compaction time.", labels, nil),
	}
	l.metrics.Store(m)
	snap := l.man.Load()
	m.segmentsLive.Set(int64(len(snap.segs)))
	m.docsTotal.Set(int64(snap.total))
}
