package huffman

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// FuzzFrozenModelRoundTrip checks what a librarian's one text model is
// relied on for: trained once on a fixed corpus and never again, it
// compresses any later string — all-novel words, multi-byte or invalid
// UTF-8, nothing but separators, nothing at all — and the copy a
// receptionist rebuilds from Marshal restores it byte for byte. The model
// trained on no documents (a librarian built empty) must do the same through
// escapes alone.
func FuzzFrozenModelRoundTrip(f *testing.F) {
	type pair struct{ librarian, receptionist *TextModel }
	frozen := map[string]pair{}
	for name, corpus := range map[string][]string{"trained": sampleCorpus(), "escape-only": nil} {
		m, err := NewTextModel(corpus)
		if err != nil {
			f.Fatal(err)
		}
		wire, err := UnmarshalTextModel(m.Marshal())
		if err != nil {
			f.Fatal(err)
		}
		frozen[name] = pair{m, wire}
	}
	f.Add("Zyzzyva!!! — unseen@@tokensé 42xyz\n\n\ttabs")
	f.Fuzz(func(t *testing.T, text string) {
		for name, m := range frozen {
			data, err := m.librarian.CompressDoc(text)
			if err != nil {
				t.Fatalf("%s model: compress %q: %v", name, text, err)
			}
			for side, dec := range map[string]*TextModel{"librarian": m.librarian, "receptionist": m.receptionist} {
				got, err := dec.DecompressDoc(data)
				if err != nil {
					t.Fatalf("%s model, %s side: decompress %q: %v", name, side, text, err)
				}
				if got != text {
					t.Fatalf("%s model, %s side: %q came back as %q", name, side, text, got)
				}
			}
		}
	})
}

// lexiconBytes is one lexicon as Marshal writes it: the count, then per
// symbol its token's length, bytes and codeword length.
func lexiconBytes(tokens []string, lengths []uint8) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(tokens)))
	for i, tok := range tokens {
		out = append(append(append(out, byte(len(tok))|0x80), tok...), lengths[i])
	}
	return out
}

// TestUnmarshalRefusesWhatMarshalCannotWrite: bytes Marshal could not have
// written are an error, not a model: a token two symbols share — the second
// could never be looked up, so the model would code it as the first — an
// escape pseudo-token with bytes, and a token length coded long.
func TestUnmarshalRefusesWhatMarshalCannotWrite(t *testing.T) {
	seps := lexiconBytes([]string{"", " "}, []uint8{1, 1})
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"repeated word":      {append(lexiconBytes([]string{"", "ab", "ab"}, []uint8{1, 2, 2}), seps...), "symbols 1 and 2"},
		"repeated one byte":  {append(lexiconBytes([]string{"", "a", "a"}, []uint8{1, 2, 2}), seps...), "symbols 1 and 2"},
		"repeated separator": {append(lexiconBytes([]string{"", "a"}, []uint8{1, 1}), lexiconBytes([]string{"", "", ""}, []uint8{1, 2, 2})...), "symbols 1 and 2"},
		"escape with bytes":  {append(lexiconBytes([]string{"x", "ab"}, []uint8{1, 1}), seps...), "escape token"},
		"long length":        {append([]byte{2, 0, 0, 0, 0x80, 1, 0x00, 0x80, 1}, seps...), "coded in 2 bytes"},
	} {
		if _, err := UnmarshalTextModel(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error saying %q", name, err, tc.want)
		}
	}
	good := append(lexiconBytes([]string{"", "ab", "a"}, []uint8{1, 2, 2}), seps...)
	m, err := UnmarshalTextModel(good)
	if err != nil || !bytes.Equal(m.Marshal(), good) {
		t.Fatalf("a well-formed model: %v", err)
	}
}

// FuzzUnmarshalTextModel: a receptionist decodes the ModelReply bytes its
// peers send. Whatever they are, UnmarshalTextModel returns an error or a
// model whose Marshal writes them back byte for byte — one token per symbol,
// one coding per model — and never panics.
func FuzzUnmarshalTextModel(f *testing.F) {
	for _, corpus := range [][]string{sampleCorpus(), nil} {
		m, err := NewTextModel(corpus)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(m.Marshal())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalTextModel(data)
		if err != nil {
			return
		}
		if got := m.Marshal(); !bytes.Equal(got, data) {
			t.Fatalf("Marshal wrote %d bytes back for %d read", len(got), len(data))
		}
	})
}
