package protocol

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"teraphim/internal/search"
)

// The payload bytes below were printed by the commit before the rank
// requests' K and FetchTop fields and RankReply.Docs existed. Requests and
// replies that use none of these fields must still encode to exactly these
// bytes; with them, the old bytes are a strict prefix and the rest is what a
// decoder without the fields — which ends every decode with expectEmpty —
// rejects.
func TestRankFetchFieldsWireCompat(t *testing.T) {
	stats := search.Stats{TermsLooked: 2, ListsFetched: 2, PostingsDecoded: 99, IndexBytesRead: 1024, CandidateDocs: 7}
	blob := DocBlob{Doc: 5, Title: "AP-5", Data: []byte("hello"), Compressed: true}
	for _, tc := range []struct {
		name     string
		old      Message
		golden   string
		extended Message
		tail     string // what the new fields append to golden
	}{
		{
			name:     "RankQuery CV",
			old:      &RankQuery{Query: "q", K: 7, Weights: map[string]float64{"a": 1}},
			golden:   "817187828161000000000000f03f",
			extended: &RankQuery{Query: "q", K: 7, Weights: map[string]float64{"a": 1}, FetchTop: 20, Compressed: true},
			tail:     "80" + "a9", // Evaluator 0 spelled out, then 20<<1|1
		},
		{
			name:     "RankQuery with evaluator",
			old:      &RankQuery{Query: "q", K: 7, Weights: map[string]float64{"a": 1}, Evaluator: 2},
			golden:   "817187828161000000000000f03f82",
			extended: &RankQuery{Query: "q", K: 7, Weights: map[string]float64{"a": 1}, Evaluator: 2, FetchTop: 3},
			tail:     "86",
		},
		{
			name:     "RankQuery CN",
			old:      &RankQuery{Query: "cn", K: 20},
			golden:   "82636e9480",
			extended: &RankQuery{Query: "cn", K: 20, FetchTop: 1},
			tail:     "80" + "82",
		},
		{
			name:     "ScoreDocs top-K",
			old:      &ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}},
			golden:   "81718381847f868281780000000000000040",
			extended: &ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}, K: 20},
			tail:     "94",
		},
		{
			name:     "ScoreDocs top-K with documents",
			old:      &ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}},
			golden:   "81718381847f868281780000000000000040",
			extended: &ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}, K: 20, FetchTop: 5, Compressed: true},
			tail:     "94" + "8b",
		},
		{
			name:     "RankReply",
			old:      &RankReply{Results: []ScoredDoc{{Doc: 5, Score: 0.75}, {Doc: 2, Score: 0.5}}, Stats: stats},
			golden:   "8285000000000000e83f82000000000000e03f8282e3008887",
			extended: &RankReply{Results: []ScoredDoc{{Doc: 5, Score: 0.75}, {Doc: 2, Score: 0.5}}, Stats: stats, Docs: []DocBlob{blob}},
			tail:     "81" + "85" + "84" + hex.EncodeToString([]byte("AP-5")) + "85" + hex.EncodeToString([]byte("hello")) + "01",
		},
	} {
		golden, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(tc.old, nil); !bytes.Equal(got, golden) {
			t.Errorf("%s: without the new fields encodes to\n%x, before the feature\n%x", tc.name, got, golden)
		}
		got := encode(tc.extended, nil)
		if want := tc.golden + tc.tail; hex.EncodeToString(got) != want {
			t.Errorf("%s: with the new fields encodes to\n%x, want\n%s", tc.name, got, want)
			continue
		}
		// What a pre-feature decoder is left holding after the fields it knows.
		if err := expectEmpty(got[len(golden):], tc.extended.Type()); err == nil {
			t.Errorf("%s: the new fields add no bytes an old decoder would reject", tc.name)
		}
		back, err := newMessage(tc.extended.Type())
		if err != nil {
			t.Fatal(err)
		}
		if err := decode(back, got); err != nil || !equalMessage(tc.extended, back) {
			t.Errorf("%s: round trip gave %#v (%v), want %#v", tc.name, back, err, tc.extended)
		}
	}
}

// A corrupt document count on a RankReply must not drive allocation.
func TestRankReplyBlobCountBounded(t *testing.T) {
	payload := encode(&RankReply{}, nil)
	payload = putUint(payload, 1<<40) // claims a trillion attached documents
	payload = append(payload, 0x85, 0x80, 0x80, 0x00)
	var rr RankReply
	if err := decode(&rr, payload); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("decode of a truncated document list: %v, want ErrShortPayload", err)
	}
	if cap(rr.Docs) > len(payload) {
		t.Fatalf("a %d-byte payload made the decoder allocate room for %d documents", len(payload), cap(rr.Docs))
	}
}
