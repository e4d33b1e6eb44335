package protocol

import (
	"bytes"
	"math"
	"testing"
)

// taggedFrame encodes msg in the pipelined framing with the given tag.
func taggedFrame(tb testing.TB, tag uint32, msg Message) []byte {
	b, err := AppendFrame(nil, tag, true, msg)
	if err != nil {
		tb.Fatalf("%v: %v", msg.Type(), err)
	}
	return b
}

// batchSeedMessages is a pair of well-formed batch frames covering both
// directions of the batched wire.
func batchSeedMessages() []Message {
	return []Message{
		&BatchQuery{Items: []Message{
			&RankQuery{Query: "alpha federal", K: 10},
			&RankQuery{Query: "wallstreet", K: 5, Weights: map[string]float64{"w": 1.5}},
			&ScoreDocs{Query: "alpha", Docs: []uint32{1, 9, 200}},
			&RankQuery{Query: "alpha federal", K: 10, FetchTop: 10},
			&ScoreDocs{Query: "alpha", Docs: []uint32{1, 9, 200}, K: 10, FetchTop: 10, Compressed: true},
		}},
		&BatchReply{Items: []Message{
			&RankReply{Results: []ScoredDoc{{Doc: 3, Score: 0.5}}},
			&ErrorReply{Message: "no such term"},
			&RankReply{},
			&RankReply{Results: []ScoredDoc{{Doc: 3, Score: 0.5}}, Docs: []DocBlob{{Doc: 3, Title: "AP-3", Data: []byte("text")}}},
			&RankReply{Results: []ScoredDoc{{Doc: 9, Score: 0.5}}, Docs: []DocBlob{{Doc: 9, Data: []byte{1, 2}, Compressed: true}}},
		}},
	}
}

// FuzzReadTaggedMessage throws arbitrary bytes at the pipelined framing
// (length | type | tag | payload). Same invariants as FuzzReadMessage, plus
// the tag must survive a re-encode round trip bit-exactly — the
// receptionist demultiplexes replies by tag, so a framing layer that
// corrupts tags silently misroutes answers between concurrent queries.
func FuzzReadTaggedMessage(f *testing.F) {
	var tag uint32 = 1
	for _, msg := range append(fuzzSeedMessages(), batchSeedMessages()...) {
		f.Add(taggedFrame(f, tag, msg))
		tag = tag*2718281829 + 7 // spread seed tags over the u32 range
	}
	// Adversarial frames: oversize length, unknown type, truncated tag,
	// truncated payload, batch item count larger than the payload holds,
	// non-batchable item type inside a batch.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x01, 0x01, 0x00, 0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x63, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x01})
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x01})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0xff})
	f.Add([]byte{0x07, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := &Reader{R: bytes.NewReader(data), Tagged: true}
		msg, tag, n, err := rd.Read()
		if n > len(data) {
			t.Fatalf("Read reported %d bytes from a %d-byte input", n, len(data))
		}
		if err != nil {
			if msg != nil {
				t.Fatalf("Read returned both a message and error %v", err)
			}
			return
		}
		frame, err := AppendFrame(nil, tag, true, msg)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", msg.Type(), err)
		}
		rd2 := &Reader{R: bytes.NewReader(frame), Tagged: true}
		back, tag2, _, err := rd2.Read()
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", msg.Type(), err)
		}
		if back.Type() != msg.Type() {
			t.Fatalf("re-encode changed type %v -> %v", msg.Type(), back.Type())
		}
		if tag2 != tag {
			t.Fatalf("re-encode changed tag %d -> %d", tag, tag2)
		}
	})
}

// FuzzBatchRoundTrip builds batch frames from fuzzed primitives and checks
// each survives encode → tagged frame → decode exactly, and that the Sizes
// bookkeeping the receptionist bills per-query bytes from is consistent
// with the payload on both ends.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add("alpha", uint32(20), 1.5, uint32(3))
	f.Add("", uint32(0), 0.0, uint32(0))
	f.Add("zebra aardvark", uint32(1<<31), -7.25e300, uint32(64))
	f.Fuzz(func(t *testing.T, s string, u32 uint32, fl float64, count uint32) {
		if math.IsNaN(fl) {
			fl = 0
		}
		n := int(count % 65)
		bq := &BatchQuery{}
		br := &BatchReply{}
		for i := 0; i < n; i++ {
			// Every third item asks for, and gets, attached documents.
			top, blobs := uint32(0), []DocBlob(nil)
			if i%3 == 0 {
				top, blobs = u32>>1, []DocBlob{{Doc: u32, Title: s, Data: []byte(s), Compressed: i%2 == 1}}
			}
			if i%2 == 0 {
				bq.Items = append(bq.Items, &RankQuery{Query: s, K: u32 + uint32(i), Weights: map[string]float64{s: fl}, FetchTop: top})
				br.Items = append(br.Items, &RankReply{Results: []ScoredDoc{{Doc: u32, Score: fl}}, Docs: blobs})
			} else {
				bq.Items = append(bq.Items, &ScoreDocs{Query: s, Docs: []uint32{u32, u32 + 1}, K: top, FetchTop: top})
				br.Items = append(br.Items, &ErrorReply{Message: s})
			}
		}
		for _, msg := range []Message{bq, br} {
			frame, err := AppendFrame(nil, u32, true, msg)
			if err != nil {
				t.Fatalf("%v: encode: %v", msg.Type(), err)
			}
			rd := &Reader{R: bytes.NewReader(frame), Tagged: true}
			back, tag, read, err := rd.Read()
			if err != nil {
				t.Fatalf("%v: decode: %v", msg.Type(), err)
			}
			if read != len(frame) {
				t.Fatalf("%v: wrote %d bytes, read %d", msg.Type(), len(frame), read)
			}
			if tag != u32 {
				t.Fatalf("%v: tag %d -> %d", msg.Type(), u32, tag)
			}
			items, sizes := batchParts(t, msg)
			backItems, backSizes := batchParts(t, back)
			if len(backItems) != len(items) || len(backSizes) != len(sizes) {
				t.Fatalf("%v: %d items/%d sizes -> %d items/%d sizes",
					msg.Type(), len(items), len(sizes), len(backItems), len(backSizes))
			}
			for i := range items {
				if !equalMessage(items[i], backItems[i]) {
					t.Fatalf("%v item %d changed:\nsent %#v\ngot  %#v", msg.Type(), i, items[i], backItems[i])
				}
				if sizes[i] != backSizes[i] {
					t.Fatalf("%v item %d: encode billed %d bytes, decode %d", msg.Type(), i, sizes[i], backSizes[i])
				}
			}
		}
	})
}

func batchParts(t *testing.T, msg Message) ([]Message, []int) {
	t.Helper()
	switch m := msg.(type) {
	case *BatchQuery:
		return m.Items, m.Sizes
	case *BatchReply:
		return m.Items, m.Sizes
	}
	t.Fatalf("not a batch message: %v", msg.Type())
	return nil, nil
}
