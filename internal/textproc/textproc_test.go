package textproc

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"Hello, World!", []string{"hello", "world"}},
		{"TREC-2 disk2", []string{"trec", "2", "disk2"}},
		{"  spaces\t\nand   newlines ", []string{"spaces", "and", "newlines"}},
		{"don't", []string{"don", "t"}},
		{"...!!!", nil},
		{"ALLCAPS", []string{"allcaps"}},
	}
	for _, c := range cases {
		got := Tokenize(nil, c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeTruncatesLongTokens(t *testing.T) {
	long := strings.Repeat("a", 100)
	got := Tokenize(nil, long)
	if len(got) != 1 || len(got[0]) != MaxTermLength {
		t.Fatalf("long token: got %v", got)
	}
}

func TestTokenizeAppends(t *testing.T) {
	dst := []string{"seed"}
	got := Tokenize(dst, "one two")
	want := []string{"seed", "one", "two"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("append mode: got %v want %v", got, want)
	}
}

func TestSplitWordsReconstructs(t *testing.T) {
	f := func(text string) bool {
		spans, tail := SplitWords(text)
		var sb strings.Builder
		for _, s := range spans {
			sb.WriteString(s.Sep)
			sb.WriteString(s.Word)
		}
		sb.WriteString(tail)
		return sb.String() == text
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// And a hand case with mixed separators.
	spans, tail := SplitWords("  Hi, there-you2! ")
	if len(spans) != 3 || tail != "! " {
		t.Fatalf("SplitWords: spans=%v tail=%q", spans, tail)
	}
	if spans[0].Word != "Hi" || spans[0].Sep != "  " {
		t.Fatalf("span 0: %+v", spans[0])
	}
	if spans[2].Word != "you2" || spans[2].Sep != "-" {
		t.Fatalf("span 2: %+v", spans[2])
	}
}

func TestPorterStemmer(t *testing.T) {
	// Reference pairs from Porter's published vocabulary.
	cases := map[string]string{
		"caresses":    "caress",
		"ponies":      "poni",
		"ties":        "ti",
		"caress":      "caress",
		"cats":        "cat",
		"feed":        "feed",
		"agreed":      "agre",
		"plastered":   "plaster",
		"bled":        "bled",
		"motoring":    "motor",
		"sing":        "sing",
		"conflated":   "conflat",
		"troubled":    "troubl",
		"sized":       "size",
		"hopping":     "hop",
		"tanned":      "tan",
		"falling":     "fall",
		"hissing":     "hiss",
		"fizzed":      "fizz",
		"failing":     "fail",
		"filing":      "file",
		"happy":       "happi",
		"sky":         "sky",
		"relational":  "relat",
		"conditional": "condit",
		"rational":    "ration",
		"valenci":     "valenc",
		"digitizer":   "digit",
		"triplicate":  "triplic",
		"formative":   "form",
		"formalize":   "formal",
		"electriciti": "electr",
		"electrical":  "electr",
		"hopefulness": "hope",
		"revival":     "reviv",
		"allowance":   "allow",
		"inference":   "infer",
		"airliner":    "airlin",
		"adjustment":  "adjust",
		"dependent":   "depend",
		"adoption":    "adopt",
		"activate":    "activ",
		"probate":     "probat",
		"rate":        "rate",
		"cease":       "ceas",
		"controll":    "control",
		"roll":        "roll",
		"retrieval":   "retriev",
		"libraries":   "librari",
		"distributed": "distribut",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortAndNonAlpha(t *testing.T) {
	for _, w := range []string{"a", "is", "", "x1ing", "cafés"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnOwnOutput(t *testing.T) {
	// Porter is not idempotent in general, but the common IR vocabulary
	// below must be stable so that query terms match indexed terms.
	words := []string{"retrieval", "distributed", "information", "queries",
		"ranking", "effectiveness", "librarian", "receptionist"}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if once != twice {
			t.Errorf("Stem not stable for %q: %q -> %q", w, once, twice)
		}
	}
}

func TestAnalyzerPipeline(t *testing.T) {
	a := NewAnalyzer()
	got := a.Terms(nil, "The LIBRARIES are being distributed across the networks!")
	want := []string{"librari", "distribut", "network"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms = %v, want %v", got, want)
	}
}

func TestAnalyzerOptions(t *testing.T) {
	plain := NewAnalyzer(WithoutStopwords(), WithoutStemming())
	got := plain.Terms(nil, "The libraries")
	want := []string{"the", "libraries"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plain Terms = %v, want %v", got, want)
	}

	custom := NewAnalyzer(WithStopwords([]string{"libraries"}), WithoutStemming())
	got = custom.Terms(nil, "the libraries win")
	want = []string{"the", "win"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("custom stopwords Terms = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	a := NewAnalyzer(WithoutStemming())
	if got := a.Terms(nil, "The retrieval"); !slices.Equal(got, []string{"retrieval"}) {
		t.Errorf("Terms(%q) = %q: The is a stopword (case-insensitive), retrieval is not", "The retrieval", got)
	}
}

func BenchmarkAnalyzer(b *testing.B) {
	a := NewAnalyzer()
	text := strings.Repeat("Distributed information retrieval systems can be fast and effective. ", 20)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		a.Terms(nil, text)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"retrieval", "distributed", "information", "effectiveness", "generalising"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

// TestTokenizeConsistentWithSplitWords pins the invariant linking the two
// lexical paths: the indexer's Tokenize must produce exactly the lowercased
// Word fields of the compressor's SplitWords, so that terms found in the
// index always exist in stored documents and vice versa.
func TestTokenizeConsistentWithSplitWords(t *testing.T) {
	f := func(text string) bool {
		tokens := Tokenize(nil, text)
		spans, _ := SplitWords(text)
		if len(tokens) != len(spans) {
			return false
		}
		for i, s := range spans {
			want := strings.ToLower(s.Word)
			if n := len(want); n > MaxTermLength {
				want = want[:MaxTermLength]
			}
			if tokens[i] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
