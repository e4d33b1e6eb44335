package protocol

import (
	"bytes"
	"io"
	"testing"
)

// The wire layer's whole point is that steady-state framing costs no
// allocation: the Writer reuses its encode buffer and the Reader its
// payload buffer and per-type message structs. These pins keep that true —
// a regression here multiplies GC pressure by the query rate.

// TestWriterAllocsSteadyState pins the encode path: once the Writer's
// buffer has grown to fit, framing a rank query allocates nothing.
func TestWriterAllocsSteadyState(t *testing.T) {
	msg := &RankQuery{Query: "alpha federal wallstreet", K: 20,
		Weights: map[string]float64{"alpha": 1.5, "federal": 0.25}}
	for _, tagged := range []bool{false, true} {
		wr := &Writer{W: io.Discard, Tagged: tagged}
		if _, err := wr.Write(7, msg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := wr.Write(7, msg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("tagged=%v: Writer.Write allocates %.1f/op steady-state, want 0", tagged, allocs)
		}
	}
}

// TestReadReuseAllocsSteadyState pins the serving-loop decode path: reading
// a CN rank query into the Reader's reused per-type struct costs at most
// one allocation (the query string itself, which must escape the frame
// buffer).
func TestReadReuseAllocsSteadyState(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		var buf bytes.Buffer
		wr := &Writer{W: &buf, Tagged: tagged}
		if _, err := wr.Write(7, &RankQuery{Query: "alpha federal wallstreet", K: 20}); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		br := bytes.NewReader(frame)
		rd := &Reader{R: br, Tagged: tagged}
		if _, _, _, err := rd.ReadReuse(); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			br.Reset(frame)
			if _, _, _, err := rd.ReadReuse(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("tagged=%v: ReadReuse allocates %.1f/op steady-state, want <= 1", tagged, allocs)
		}
	}
}

// TestRoundTripAllocsSteadyState pins the full encode → frame → decode
// round trip of a rank query at one allocation: the decoded query string.
// Replies ride the same pin with zero — RankReply's fields are all
// capacity-reused.
func TestRoundTripAllocsSteadyState(t *testing.T) {
	query := &RankQuery{Query: "alpha federal wallstreet", K: 20}
	reply := &RankReply{Results: []ScoredDoc{{Doc: 5, Score: 0.77}, {Doc: 9, Score: 0.5}}}
	for _, tc := range []struct {
		name string
		msg  Message
		max  float64
	}{
		{"RankQuery", query, 1},
		{"RankReply", reply, 0},
	} {
		var buf bytes.Buffer
		wr := &Writer{W: &buf, Tagged: true}
		rd := &Reader{R: &buf, Tagged: true}
		roundTrip := func() {
			buf.Reset()
			if _, err := wr.Write(3, tc.msg); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := rd.ReadReuse(); err != nil {
				t.Fatal(err)
			}
		}
		roundTrip()
		if allocs := testing.AllocsPerRun(200, roundTrip); allocs > tc.max {
			t.Errorf("%s: round trip allocates %.1f/op steady-state, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}

// TestFrameBuffersDropSetupFrames: after a 200 KB frame — the size of a
// vocabulary or model frame at set-up — and then a small one, neither a
// Writer nor a Reader keeps more than maxKeptBuf, so a connection does not
// pin its set-up frame for its lifetime.
func TestFrameBuffersDropSetupFrames(t *testing.T) {
	for _, tagged := range []bool{false, true} {
		var wire bytes.Buffer
		wr := &Writer{W: &wire, Tagged: tagged}
		rd := &Reader{R: &wire, Tagged: tagged}
		for _, msg := range []Message{&IndexReply{Lo: 1, Hi: 2, Lists: make([]byte, 200<<10)}, &RankQuery{Query: "alpha", K: 10}} {
			if _, err := wr.Write(3, msg); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := rd.Read(); err != nil {
				t.Fatal(err)
			}
			if cap(wr.buf) > maxKeptBuf || cap(rd.buf) > maxKeptBuf {
				t.Fatalf("tagged=%v, after %v: Writer keeps %d bytes, Reader %d, want at most %d",
					tagged, msg.Type(), cap(wr.buf), cap(rd.buf), maxKeptBuf)
			}
		}
	}
}
