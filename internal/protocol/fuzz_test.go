package protocol

import (
	"bytes"
	"math"
	"testing"

	"teraphim/internal/codec"
	"teraphim/internal/search"
)

// fuzzSeedMessages is one representative value per message type, used to
// seed both fuzzers with frames that exercise every decoder.
func fuzzSeedMessages() []Message {
	stats := search.Stats{TermsLooked: 2, ListsFetched: 2, PostingsDecoded: 99, IndexBytesRead: 1024, CandidateDocs: 7}
	return []Message{
		&Hello{Version: Version},
		&HelloReply{Name: "AP", NumDocs: 2600, NumTerms: 45000, IndexBytes: 1 << 20, VocabBytes: 9999, StoreBytes: 1 << 22, Version: Version},
		&VocabRequest{},
		&VocabReply{Terms: []TermStat{{Term: "aardvark", FT: 3}, {Term: "aardwolf", FT: 1}}},
		&RankQuery{Query: "distributed retrieval", K: 20, Weights: map[string]float64{"a": 1.5}},
		&RankQuery{Query: "distributed retrieval", K: 20, FetchTop: 20, Compressed: true},
		&RankReply{Results: []ScoredDoc{{Doc: 5, Score: 0.77}}, Stats: stats},
		&RankReply{Results: []ScoredDoc{{Doc: 5, Score: 0.77}}, Stats: stats,
			Docs: []DocBlob{{Doc: 5, Title: "AP-5", Data: []byte{0xC0, 0xFF, 0xEE}, Compressed: true}, {Doc: 9, Title: "AP-9"}}},
		&ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}},
		&ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}, K: 20, FetchTop: 5},
		&FetchDocs{Docs: []uint32{0, 3, 77}, Compressed: true},
		&FetchReply{Docs: []DocBlob{{Doc: 3, Title: "AP-3", Data: []byte("hello"), Compressed: false}}},
		&ErrorReply{Message: "no such document"},
		&ModelRequest{},
		&ModelReply{Model: []byte{1, 2, 3}},
		&BooleanQuery{Expr: "alpha AND beta"},
		&BooleanReply{Docs: []uint32{2, 9}, Stats: stats},
		&IndexRequest{G: 10, Base: 433},
		&IndexRequest{G: 10, Base: 433, Part: 3, Parts: 8},
		seedIndexReply(),
	}
}

// seedIndexReply is the reply of a librarian holding global documents
// [433, 720) asked for groups of 10: its first and last groups are shared
// with its neighbours.
func seedIndexReply() *IndexReply {
	reply := &IndexReply{Lo: 43, Hi: 72}
	w := NewListWriter(reply)
	for _, l := range []struct {
		term   string
		groups []codec.Posting
	}{
		{"aardvark", []codec.Posting{{Doc: 0, FDT: 2}, {Doc: 7, FDT: 1}, {Doc: 28, FDT: 4}}},
		{"aardwolf", []codec.Posting{{Doc: 3, FDT: 1}}},
		{"zebra", []codec.Posting{{Doc: 0, FDT: 1}, {Doc: 1, FDT: 9}, {Doc: 2, FDT: 1}}},
	} {
		if err := w.Append(l.term, l.groups); err != nil {
			panic(err)
		}
	}
	return reply
}

// FuzzReadMessage throws arbitrary bytes at the framing layer. The
// invariants: never panic, never report reading more bytes than the input
// holds, never allocate unboundedly from a corrupt length or count (a
// decoded frame's memory is bounded by the payload the reader actually
// produced), and any frame that does decode must re-encode and decode again
// to the same message type (the decoder only accepts what the encoder can
// express).
func FuzzReadMessage(f *testing.F) {
	for _, msg := range fuzzSeedMessages() {
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Adversarial frames: oversize length, unknown type, truncated payload,
	// count larger than payload, a Hello whose version overflows 32 bits.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x63})
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x06, 0x01})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x04, 0xff})
	wide := putUint(nil, 1<<32+7)
	f.Add(append([]byte{byte(len(wide)), 0x00, 0x00, 0x00, byte(TypeHello)}, wide...))
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := ReadMessage(bytes.NewReader(data))
		if n > len(data) {
			t.Fatalf("ReadMessage reported %d bytes from a %d-byte input", n, len(data))
		}
		if err != nil {
			if msg != nil {
				t.Fatalf("ReadMessage returned both a message and error %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", msg.Type(), err)
		}
		back, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", msg.Type(), err)
		}
		if back.Type() != msg.Type() {
			t.Fatalf("re-encode changed type %v -> %v", msg.Type(), back.Type())
		}
	})
}

// FuzzMessageRoundTrip builds one message of every type from fuzzed
// primitives and checks each survives encode → frame → decode exactly.
// Combined with FuzzReadMessage this covers both directions: arbitrary
// bytes never break the decoder, and arbitrary field values never break the
// encoder.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add("alpha", []byte{1, 2, 3}, uint32(20), uint64(1<<33), 1.5, true)
	f.Add("", []byte(nil), uint32(0), uint64(0), 0.0, false)
	f.Add("zebra aardvark", []byte{0xff, 0x00}, uint32(1<<31), uint64(1)<<63, -7.25e300, true)
	f.Fuzz(func(t *testing.T, s string, b []byte, u32 uint32, u64 uint64, fl float64, flag bool) {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN would defeat the equality check below
		}
		stats := search.Stats{
			TermsLooked:     int(u32 % 1000),
			ListsFetched:    int(u64 % 1000),
			PostingsDecoded: u64,
			IndexBytesRead:  u64 / 3,
			CandidateDocs:   int(u32 % 500),
		}
		weights := map[string]float64{s: fl, "fixed": fl * 2}
		docs := []uint32{u32 % 1000, u32%1000 + 1, u32%1000 + 500}
		msgs := []Message{
			&Hello{Version: u32},
			&HelloReply{Name: s, NumDocs: u32, NumTerms: u32 / 2, IndexBytes: u64, VocabBytes: u64 / 7, StoreBytes: u64 / 3, Version: u32},
			&VocabRequest{},
			&VocabReply{Terms: []TermStat{{Term: s, FT: u32}, {Term: s + "x", FT: u32 / 2}}},
			&RankQuery{Query: s, K: u32, Weights: weights, Evaluator: uint8(u64)},
			&RankQuery{Query: s, K: u32}, // nil weights (CN), exact evaluator
			&RankQuery{Query: s, K: u32, Weights: weights, Evaluator: uint8(u64), FetchTop: u32 >> 1, Compressed: flag && u32>>1 != 0},
			&RankReply{Results: []ScoredDoc{{Doc: u32, Score: fl}, {Doc: u32 + 1, Score: fl / 2}}, Stats: stats},
			&RankReply{Results: []ScoredDoc{{Doc: u32, Score: fl}}, Stats: stats,
				Docs: []DocBlob{{Doc: u32, Title: s, Data: b, Compressed: flag}, {Doc: u32 + 1, Data: b}}},
			&ScoreDocs{Query: s, Docs: docs, Weights: weights},
			&ScoreDocs{Query: s, Docs: docs, Weights: weights, K: u32},
			&ScoreDocs{Query: s, Docs: docs, K: u32, FetchTop: u32 >> 1, Compressed: flag && u32>>1 != 0},
			&FetchDocs{Docs: docs, Compressed: flag},
			&FetchReply{Docs: []DocBlob{{Doc: u32, Title: s, Data: b, Compressed: flag}}},
			&ErrorReply{Message: s},
			&ModelRequest{},
			&ModelReply{Model: b},
			&BooleanQuery{Expr: s},
			&BooleanReply{Docs: docs, Stats: stats},
			&IndexRequest{G: u32, Base: u32 / 3},
			&IndexRequest{G: u32, Base: u32 / 3, Part: u32 % 8, Parts: u32 / 5},
			&IndexReply{Lo: u32 / 2, Hi: u32, Lists: b},
		}
		for _, msg := range msgs {
			var buf bytes.Buffer
			wrote, err := WriteMessage(&buf, msg)
			if err != nil {
				t.Fatalf("%v: write: %v", msg.Type(), err)
			}
			back, read, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("%v: read back: %v", msg.Type(), err)
			}
			if read != wrote {
				t.Fatalf("%v: wrote %d bytes, read %d", msg.Type(), wrote, read)
			}
			if !equalMessage(msg, back) {
				t.Fatalf("%v: round trip changed message:\nsent %#v\ngot  %#v", msg.Type(), msg, back)
			}
		}
	})
}

// equalMessage compares two messages field-for-field, treating nil and
// empty slices as equal (the wire does not distinguish them except for
// weights, whose nil/empty distinction is load-bearing and checked
// exactly).
func equalMessage(a, b Message) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch x := a.(type) {
	case *VocabRequest, *ModelRequest:
		return true
	case *Hello:
		return *x == *b.(*Hello)
	case *IndexRequest:
		return *x == *b.(*IndexRequest)
	case *HelloReply:
		y := b.(*HelloReply)
		return *x == *y
	case *VocabReply:
		y := b.(*VocabReply)
		if len(x.Terms) != len(y.Terms) {
			return false
		}
		for i := range x.Terms {
			if x.Terms[i] != y.Terms[i] {
				return false
			}
		}
		return true
	case *RankQuery:
		y := b.(*RankQuery)
		return x.Query == y.Query && x.K == y.K && x.Evaluator == y.Evaluator && equalWeights(x.Weights, y.Weights) &&
			x.FetchTop == y.FetchTop && x.Compressed == y.Compressed
	case *RankReply:
		y := b.(*RankReply)
		if x.Stats != y.Stats || len(x.Results) != len(y.Results) {
			return false
		}
		for i := range x.Results {
			if x.Results[i] != y.Results[i] {
				return false
			}
		}
		return equalBlobs(x.Docs, y.Docs)
	case *ScoreDocs:
		y := b.(*ScoreDocs)
		return x.Query == y.Query && equalU32s(x.Docs, y.Docs) && equalWeights(x.Weights, y.Weights) &&
			x.K == y.K && x.FetchTop == y.FetchTop && x.Compressed == y.Compressed
	case *FetchDocs:
		y := b.(*FetchDocs)
		return x.Compressed == y.Compressed && equalU32s(x.Docs, y.Docs)
	case *FetchReply:
		y := b.(*FetchReply)
		return equalBlobs(x.Docs, y.Docs)
	case *ErrorReply:
		y := b.(*ErrorReply)
		return x.Message == y.Message
	case *ModelReply:
		y := b.(*ModelReply)
		return bytes.Equal(x.Model, y.Model)
	case *BooleanQuery:
		y := b.(*BooleanQuery)
		return x.Expr == y.Expr
	case *BooleanReply:
		y := b.(*BooleanReply)
		return x.Stats == y.Stats && equalU32s(x.Docs, y.Docs)
	case *IndexReply:
		y := b.(*IndexReply)
		return x.Lo == y.Lo && x.Hi == y.Hi && bytes.Equal(x.Lists, y.Lists)
	}
	return false
}

func equalBlobs(a, b []DocBlob) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || a[i].Title != b[i].Title ||
			a[i].Compressed != b[i].Compressed || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

func equalWeights(a, b map[string]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

func equalU32s(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
