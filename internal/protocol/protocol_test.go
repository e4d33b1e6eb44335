package protocol

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"teraphim/internal/search"
)

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	wrote, err := WriteMessage(&buf, msg)
	if err != nil {
		t.Fatalf("write %v: %v", msg.Type(), err)
	}
	if wrote != buf.Len() {
		t.Fatalf("WriteMessage reported %d bytes, wrote %d", wrote, buf.Len())
	}
	got, read, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read %v: %v", msg.Type(), err)
	}
	if read != wrote {
		t.Fatalf("ReadMessage reported %d bytes, want %d", read, wrote)
	}
	if got.Type() != msg.Type() {
		t.Fatalf("type changed: %v -> %v", msg.Type(), got.Type())
	}
	return got
}

func TestAllMessagesRoundTrip(t *testing.T) {
	stats := search.Stats{TermsLooked: 3, ListsFetched: 2, PostingsDecoded: 456, IndexBytesRead: 789, CandidateDocs: 55}
	msgs := []Message{
		&Hello{},
		&Hello{Version: Version},
		&HelloReply{Name: "AP", NumDocs: 2600, NumTerms: 45000, IndexBytes: 1 << 20, VocabBytes: 9999, StoreBytes: 1 << 22},
		&HelloReply{Name: "AP", NumDocs: 2600, Version: math.MaxUint32},
		&VocabRequest{},
		&VocabReply{Terms: []TermStat{{Term: "aardvark", FT: 3}, {Term: "aardwolf", FT: 1}, {Term: "zebra", FT: 7}}},
		&RankQuery{Query: "distributed retrieval", K: 20},
		&RankQuery{Query: "q", K: 1000, Weights: map[string]float64{"a": 1.5, "b": 0.25}},
		&RankQuery{Query: "q", K: 5, Weights: map[string]float64{}},
		&RankReply{Results: []ScoredDoc{{Doc: 5, Score: 0.77}, {Doc: 9, Score: 0.11}}, Stats: stats},
		&RankReply{},
		&ScoreDocs{Query: "q", Docs: []uint32{1, 5, 900}, Weights: map[string]float64{"x": 2}},
		&FetchDocs{Docs: []uint32{0, 3, 77}, Compressed: true},
		&FetchDocs{Docs: nil, Compressed: false},
		&FetchReply{Docs: []DocBlob{
			{Doc: 3, Title: "AP-3", Data: []byte("hello world"), Compressed: false},
			{Doc: 77, Title: "AP-77", Data: []byte{0x1, 0x2, 0xff}, Compressed: true},
		}},
		&ErrorReply{Message: "no such document"},
		&IndexRequest{G: 10, Base: 433},
		&IndexRequest{G: 10, Base: 433, Part: 7, Parts: 8},
		&IndexRequest{G: 1, Part: 1},
	}
	for _, msg := range msgs {
		got := roundTrip(t, msg)
		want := normalize(msg)
		gotN := normalize(got)
		if !reflect.DeepEqual(gotN, want) {
			t.Errorf("%v round trip:\ngot  %#v\nwant %#v", msg.Type(), gotN, want)
		}
	}
}

// normalize maps nil and empty slices to a canonical form for comparison.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *RankReply:
		if len(v.Results) == 0 {
			v.Results = nil
		}
	case *FetchDocs:
		if len(v.Docs) == 0 {
			v.Docs = nil
		}
	case *FetchReply:
		if len(v.Docs) == 0 {
			v.Docs = nil
		}
	}
	return m
}

func TestNilVsEmptyWeights(t *testing.T) {
	// nil weights (CN: use local stats) and empty weights (CV: nothing
	// weighted) must survive the wire distinctly.
	got := roundTrip(t, &RankQuery{Query: "q", K: 1, Weights: nil})
	if rq, ok := got.(*RankQuery); !ok || rq.Weights != nil {
		t.Fatalf("nil weights arrived as %#v", got)
	}
	got = roundTrip(t, &RankQuery{Query: "q", K: 1, Weights: map[string]float64{}})
	if rq, ok := got.(*RankQuery); !ok || rq.Weights == nil || len(rq.Weights) != 0 {
		t.Fatalf("empty weights arrived as %#v", got)
	}
}

func TestVocabFrontCoding(t *testing.T) {
	// A sorted vocabulary with heavy shared prefixes must encode smaller
	// than naive strings.
	var terms []TermStat
	for i := 0; i < 1000; i++ {
		terms = append(terms, TermStat{Term: "prefixsharedacross" + strconv.Itoa(i), FT: uint32(i + 1)})
	}
	msg := &VocabReply{Terms: terms}
	payload := msg.encode(nil)
	naive := 0
	for _, ts := range terms {
		naive += len(ts.Term) + 4
	}
	if len(payload) >= naive {
		t.Fatalf("front-coded vocab %d bytes >= naive %d", len(payload), naive)
	}
	var back VocabReply
	if err := back.decode(payload); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Terms, terms) {
		t.Fatal("front-coded vocab mismatch after decode")
	}
}

func TestCorruptFrames(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, &ErrorReply{Message: "x"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, _, err := ReadMessage(bytes.NewReader(raw[:3])); err == nil {
		t.Fatal("truncated header: want error")
	}
	if _, _, err := ReadMessage(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated payload: want error")
	}
	// Unknown type.
	bad := append([]byte(nil), raw...)
	bad[4] = 0xEE
	if _, _, err := ReadMessage(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown type: want error")
	}
	// Oversize frame length.
	big := append([]byte(nil), raw...)
	big[0], big[1], big[2], big[3] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := ReadMessage(bytes.NewReader(big)); err == nil {
		t.Fatal("oversize frame: want error")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// The optional trailing fields (RankQuery Evaluator+FetchTop, ScoreDocs
	// K+FetchTop, RankReply Docs) are all present and well-formed here, so
	// the one byte beyond them is what expectEmpty must reject — not a
	// field that failed to parse.
	blob := DocBlob{Doc: 3, Title: "t", Data: []byte("text")}
	for _, c := range []struct{ full, back Message }{
		{&RankQuery{Query: "q", K: 1, Evaluator: 1, FetchTop: 2, Compressed: true}, &RankQuery{}},
		{&ScoreDocs{Query: "q", Docs: []uint32{1, 4}, K: 1, FetchTop: 1}, &ScoreDocs{}},
		{&RankReply{Results: []ScoredDoc{{Doc: 3, Score: 1}}, Docs: []DocBlob{blob}}, &RankReply{}},
	} {
		payload := c.full.encode(nil)
		if err := c.back.decode(payload); err != nil {
			t.Fatalf("%v with every optional field: %v", c.full.Type(), err)
		}
		err := c.back.decode(append(payload, 0x01))
		if err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
			t.Fatalf("%v plus one byte: got %v, want the trailing-bytes rejection", c.full.Type(), err)
		}
	}
}

func TestRankQueryEvaluatorCompat(t *testing.T) {
	// An exact-evaluator query must encode byte-identically to the
	// pre-evaluator frame format, so old librarians keep understanding new
	// receptionists and vice versa.
	plain := (&RankQuery{Query: "q", K: 7, Weights: map[string]float64{"a": 1}}).encode(nil)
	tagged := (&RankQuery{Query: "q", K: 7, Weights: map[string]float64{"a": 1}, Evaluator: 0}).encode(nil)
	if !bytes.Equal(plain, tagged) {
		t.Fatalf("exact-evaluator frame differs from legacy frame:\n%x\n%x", plain, tagged)
	}
	// A legacy frame (no trailing field) decodes with Evaluator 0.
	var back RankQuery
	back.Evaluator = 9 // ensure decode resets stale state
	if err := back.decode(plain); err != nil {
		t.Fatal(err)
	}
	if back.Evaluator != 0 {
		t.Fatalf("legacy frame decoded Evaluator %d, want 0", back.Evaluator)
	}
	// Non-zero evaluators round-trip through the trailing field.
	for _, ev := range []uint8{1, 2, 200} {
		got := roundTrip(t, &RankQuery{Query: "q", K: 1, Evaluator: ev})
		rq, ok := got.(*RankQuery)
		if !ok || rq.Evaluator != ev {
			t.Fatalf("Evaluator %d arrived as %#v", ev, got)
		}
	}
}

// A version that does not fit in 32 bits is rejected, not truncated: 2³²+7
// must not decode as version 7.
func TestHelloVersionDecodeStrict(t *testing.T) {
	const wide = 1<<32 + 7
	reply := (&HelloReply{Name: "AP", NumDocs: 3}).encode(nil)
	for _, tc := range []struct {
		msg     Message
		payload []byte
	}{
		{&Hello{}, putUint(nil, wide)},
		{&HelloReply{}, putUint(reply, wide)},
	} {
		if err := tc.msg.decode(tc.payload); err == nil {
			t.Errorf("%v with version 2^32+7 decoded as %+v", tc.msg.Type(), tc.msg)
		}
	}
	var h Hello
	if err := h.decode(putUint(nil, math.MaxUint32)); err != nil || h.Version != math.MaxUint32 {
		t.Errorf("Hello at the widest version: %+v, %v", h, err)
	}
}

// A whole-reply IndexRequest is the seed payload, G and Base alone; a part
// request trails Part and Parts, and one that carries Part without Parts is
// truncated.
func TestIndexRequestPartsEncoding(t *testing.T) {
	seed := putUint(putUint(nil, 10), 433)
	if got := (&IndexRequest{G: 10, Base: 433}).encode(nil); !bytes.Equal(got, seed) {
		t.Fatalf("whole-reply IndexRequest encodes as %x, the seed payload is %x", got, seed)
	}
	part := (&IndexRequest{G: 10, Base: 433, Part: 2, Parts: 8}).encode(nil)
	if want := putUint(putUint(seed, 2), 8); !bytes.Equal(part, want) {
		t.Fatalf("part request encodes as %x, want %x", part, want)
	}
	var q IndexRequest
	if err := q.decode(part[:len(part)-1]); !errors.Is(err, ErrShortPayload) {
		t.Fatalf("part without parts: got %+v, %v; want ErrShortPayload", q, err)
	}
}

func TestSequentialMessagesOnStream(t *testing.T) {
	// Several frames back to back on one stream, as in a real session.
	var buf bytes.Buffer
	sent := []Message{
		&Hello{},
		&RankQuery{Query: "alpha beta", K: 20},
		&FetchDocs{Docs: []uint32{1, 2, 3}},
	}
	for _, m := range sent {
		if _, err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range sent {
		got, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("got %v, want %v", got.Type(), want.Type())
		}
	}
	if _, _, err := ReadMessage(&buf); err == nil {
		t.Fatal("empty stream: want error")
	}
}

func TestQuickScoreDocsDeltas(t *testing.T) {
	f := func(raw []uint32) bool {
		// Doc lists are sorted by contract.
		docs := append([]uint32(nil), raw...)
		for i := 1; i < len(docs); i++ {
			if docs[i] < docs[i-1] {
				docs[i] = docs[i-1]
			}
		}
		msg := &ScoreDocs{Query: "q", Docs: docs}
		payload := msg.encode(nil)
		var back ScoreDocs
		if err := back.decode(payload); err != nil {
			return false
		}
		if len(docs) == 0 {
			return len(back.Docs) == 0
		}
		return reflect.DeepEqual(back.Docs, docs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteError(t *testing.T) {
	err := &RemoteError{Message: "boom"}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestWriteToFailingWriter(t *testing.T) {
	w := failingWriter{}
	if _, err := WriteMessage(w, &Hello{}); err == nil {
		t.Fatal("failing writer: want error")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func BenchmarkRankReplyRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	results := make([]ScoredDoc, 1000)
	for i := range results {
		results[i] = ScoredDoc{Doc: uint32(i * 3), Score: rng.Float64()}
	}
	msg := &RankReply{Results: results}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := ReadMessage(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeRandomBytesNeverPanics throws random payloads at every message
// decoder: corrupt input must produce errors, never panics or hangs.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	types := []Message{
		&Hello{}, &HelloReply{}, &VocabRequest{}, &VocabReply{},
		&RankQuery{}, &RankReply{}, &ScoreDocs{}, &FetchDocs{},
		&FetchReply{}, &ErrorReply{}, &ModelRequest{}, &ModelReply{},
		&BooleanQuery{}, &BooleanReply{}, &IndexRequest{}, &IndexReply{},
	}
	for trial := 0; trial < 2000; trial++ {
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		for _, msg := range types {
			fresh, err := newMessage(msg.Type())
			if err != nil {
				t.Fatal(err)
			}
			// Must not panic; error or success are both acceptable.
			_ = fresh.decode(payload)
		}
	}
}

// TestFrameStreamRandomBytes verifies the framing layer itself rejects
// random streams cleanly.
func TestFrameStreamRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		raw := make([]byte, rng.Intn(40))
		rng.Read(raw)
		_, _, _ = ReadMessage(bytes.NewReader(raw))
	}
}

// TestAllNewMessagesRoundTripEmpty ensures every registered type can encode
// its zero value and decode it back.
func TestAllNewMessagesRoundTripEmpty(t *testing.T) {
	for mt := TypeHello; mt <= TypeIndexReply; mt++ {
		msg, err := newMessage(mt)
		if err != nil {
			t.Fatalf("type %v unregistered", mt)
		}
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("%v: write zero value: %v", mt, err)
		}
		back, _, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%v: read zero value: %v", mt, err)
		}
		if back.Type() != mt {
			t.Fatalf("%v round-tripped to %v", mt, back.Type())
		}
	}
}
