package huffman

import "testing"

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
