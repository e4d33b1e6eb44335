package huffman

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"teraphim/internal/textproc"
)

// frozenSeeds returns the texts of FuzzFrozenModelRoundTrip's seed corpus.
func frozenSeeds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzFrozenModelRoundTrip", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no seeds: %v", err)
	}
	var texts []string
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		texts = append(texts, text)
	}
	return texts
}

// TestUnmarshalledModelDecodesWithoutLookup: a model rebuilt from Marshal —
// the receptionist's — restores every seed byte for byte while its lexicons
// hold no lookup table, and again once its first encode has built them,
// when it also codes the seed as the trained model does.
func TestUnmarshalledModelDecodesWithoutLookup(t *testing.T) {
	trained, err := NewTextModel(sampleCorpus())
	if err != nil {
		t.Fatal(err)
	}
	wire, err := UnmarshalTextModel(trained.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	seeds := frozenSeeds(t)
	for round, built := range []bool{false, true} {
		for _, text := range seeds {
			data, err := trained.CompressDoc(text)
			if err != nil {
				t.Fatal(err)
			}
			if wire.words.tokens.Indexed() != built || wire.seps.tokens.Indexed() != built {
				t.Fatalf("round %d: lookup tables built = %v, want %v", round, wire.words.tokens.Indexed(), built)
			}
			if got, err := wire.DecompressDoc(data); err != nil || got != text {
				t.Fatalf("round %d: %q came back as %q (%v)", round, text, got, err)
			}
			if built {
				again, err := wire.CompressDoc(text)
				if err != nil || string(again) != string(data) {
					t.Fatalf("%q: the rebuilt model codes %d bytes, the trained one %d (%v)", text, len(again), len(data), err)
				}
			}
		}
		if _, err := wire.CompressDoc("the first encode"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrainedModelBuildsLookupOnFirstEncode: a model fresh from its Trainer
// holds no lookup table, as an unmarshalled one does not; its first encode
// builds them, and it then numbers every token as the Trainer did and codes
// every seed as the unmarshalled copy of it does.
func TestTrainedModelBuildsLookupOnFirstEncode(t *testing.T) {
	tr := NewTrainer()
	words := map[string]uint32{}
	for _, doc := range sampleCorpus() {
		spans, tail := textproc.SplitWords(doc)
		for _, s := range spans {
			tr.SepSymbol(s.Sep)
			words[s.Word] = tr.WordSymbol(s.Word)
		}
		tr.SepSymbol(tail)
	}
	m, err := tr.Model()
	if err != nil {
		t.Fatal(err)
	}
	if m.words.tokens.Indexed() || m.seps.tokens.Indexed() {
		t.Fatal("a trained model holds lookup tables before its first encode")
	}
	wire, err := UnmarshalTextModel(m.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range frozenSeeds(t) {
		data, err := m.CompressDoc(text)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := wire.CompressDoc(text); err != nil || string(again) != string(data) {
			t.Fatalf("%q: the trained model codes %d bytes, its unmarshalled copy %d (%v)", text, len(data), len(again), err)
		}
	}
	if !m.words.tokens.Indexed() || !m.seps.tokens.Indexed() {
		t.Fatal("no lookup tables after the first encode")
	}
	for word, sym := range words {
		if got := m.WordSymbol(word); got != sym {
			t.Fatalf("%q: symbol %d, the trainer's %d", word, got, sym)
		}
	}
}
