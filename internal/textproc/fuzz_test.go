package textproc

import (
	"reflect"
	"testing"
	"unicode"
)

// refSplitWords is SplitWords as it was before the ASCII table and AppendWords,
// kept verbatim as the reference the fast scanner must match: one range loop
// over the runes, a word being a maximal run of letters and digits.
func refSplitWords(text string) (spans []WordSpan, tail string) {
	n, inWord := 0, false
	for _, r := range text {
		isWord := unicode.IsLetter(r) || unicode.IsDigit(r)
		if isWord && !inWord {
			n++
		}
		inWord = isWord
	}
	if n == 0 {
		return nil, text
	}
	spans = make([]WordSpan, 0, n)
	sepStart := 0
	wordStart := -1
	for i, r := range text {
		isWord := unicode.IsLetter(r) || unicode.IsDigit(r)
		switch {
		case isWord && wordStart < 0:
			wordStart = i
		case !isWord && wordStart >= 0:
			spans = append(spans, WordSpan{Sep: text[sepStart:wordStart], Word: text[wordStart:i]})
			sepStart = i
			wordStart = -1
		}
	}
	if wordStart >= 0 {
		spans = append(spans, WordSpan{Sep: text[sepStart:wordStart], Word: text[wordStart:]})
		return spans, ""
	}
	return spans, text[sepStart:]
}

// FuzzSplitWordsMatchesReference holds the scanner the write path splits
// every document with to the rune loop it replaced — SplitWords, and
// AppendWords onto a buffer already holding a span — and holds Analyzer.Term,
// which the write path runs once per distinct word, to the query analyser:
// for every word the scanner yields, Term(w) is what Terms(nil, w) returns.
func FuzzSplitWordsMatchesReference(f *testing.F) {
	f.Add("Hello, World! TREC-2 disk2")
	a := NewAnalyzer()
	f.Fuzz(func(t *testing.T, text string) {
		wantSpans, wantTail := refSplitWords(text)
		spans, tail := SplitWords(text)
		if !reflect.DeepEqual(spans, wantSpans) || tail != wantTail {
			t.Fatalf("SplitWords(%q) = %q, %q; the rune loop gives %q, %q", text, spans, tail, wantSpans, wantTail)
		}
		held := WordSpan{Sep: "<", Word: "held"}
		appended, tail := AppendWords([]WordSpan{held}, text)
		if appended[0] != held || !reflect.DeepEqual(appended[1:], append([]WordSpan{}, wantSpans...)) || tail != wantTail {
			t.Fatalf("AppendWords(%q) = %q, %q; want %q after the held span, %q", text, appended, tail, wantSpans, wantTail)
		}
		for _, s := range spans {
			term, ok := a.Term(s.Word)
			want := a.Terms(nil, s.Word)
			if len(want) > 1 || ok != (len(want) == 1) || ok && term != want[0] {
				t.Fatalf("Term(%q) = %q, %v; Terms gives %q", s.Word, term, ok, want)
			}
		}
	})
}
