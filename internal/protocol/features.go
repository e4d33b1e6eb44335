package protocol

import "fmt"

// Features is the protocol feature bitmask negotiated on the Hello
// exchange. A client requests the extensions it understands in
// Hello.Features; the librarian answers HelloReply.Features with the
// intersection of the request and its own support — never more. A zero
// bitmask on either side selects the seed wire format, so fleets of mixed
// versions interoperate: an old librarian ignores the field it never
// decodes (the Hello payload stays empty when no features are requested)
// and an old receptionist never requests anything, keeping both directions
// bit-identical to the original framing.
type Features uint32

// Protocol extensions negotiable via the Hello feature bitmask.
const (
	// FeaturePipelining switches the connection to tagged framing after the
	// HelloReply: every subsequent frame carries a u32 exchange id, replies
	// may arrive out of order, and one connection carries many in-flight
	// exchanges. The Hello/HelloReply pair itself is always exchanged in the
	// seed framing — negotiation must be readable by peers that have never
	// heard of it.
	FeaturePipelining Features = 1 << 0
	// FeatureBatching advertises that the librarian accepts BatchQuery
	// frames (several rank-phase requests evaluated in one round trip).
	// Batching composes with, but does not require, pipelining.
	FeatureBatching Features = 1 << 1
	// FeatureRankFetch lets a rank-phase request ask for a trimmed,
	// text-carrying reply: ScoreDocs.K (top-K best-first instead of every
	// nominated score) and RankQuery/ScoreDocs.FetchTop (DocBlobs for the
	// best results attached to the RankReply), so a Fetch query completes
	// in one exchange. The fields are optional trailing bytes that a peer
	// without this bit rejects (its decoders demand an exhausted payload),
	// which is why they are sent only on connections that granted it.
	FeatureRankFetch Features = 1 << 2

	// FeatureNone is a configuration sentinel meaning "request nothing":
	// it forces the seed wire format when a zero Features value would
	// otherwise select a default set. It is masked off before the bitmask
	// goes on the wire.
	FeatureNone Features = 1 << 31
)

// SupportedFeatures is every extension this build of the librarian can
// grant. The granted set on a Hello exchange is requested ∩ supported.
const SupportedFeatures = FeaturePipelining | FeatureBatching | FeatureRankFetch

// wireFeatureMask strips configuration sentinels (FeatureNone) so they are
// never transmitted.
const wireFeatureMask = ^FeatureNone

// Wire returns the bitmask as it goes on the wire: configuration sentinels
// masked off.
func (f Features) Wire() Features { return f & wireFeatureMask }

// Has reports whether every bit of q is set in f.
func (f Features) Has(q Features) bool { return f&q == q }

func (f Features) String() string {
	if f == 0 {
		return "none"
	}
	s := ""
	add := func(name string) {
		if s != "" {
			s += "+"
		}
		s += name
	}
	if f.Has(FeaturePipelining) {
		add("pipelining")
	}
	if f.Has(FeatureBatching) {
		add("batching")
	}
	if f.Has(FeatureRankFetch) {
		add("rankfetch")
	}
	if rest := f &^ (SupportedFeatures | FeatureNone); rest != 0 {
		add(fmt.Sprintf("unknown(%#x)", uint32(rest)))
	}
	if f.Has(FeatureNone) {
		add("none-sentinel")
	}
	return s
}

// FeatureMismatchError reports a broken negotiation: the peer granted
// feature bits that were never requested. A correct librarian answers with
// a subset of the request (possibly empty — that is the orderly degrade to
// the seed framing); a superset means the two sides would disagree about
// the framing of every subsequent byte, so the connection must be abandoned
// rather than desync. The error is permanent for the peer pair — retrying
// the same handshake cannot fix a protocol disagreement.
type FeatureMismatchError struct {
	Requested Features
	Granted   Features
}

func (e *FeatureMismatchError) Error() string {
	return fmt.Sprintf("protocol: feature mismatch: requested %v, peer granted %v (unrequested bits %v)",
		e.Requested, e.Granted, e.Granted&^e.Requested)
}
