// Package textproc supplies the lexical pipeline used when parsing documents
// and queries: tokenisation, case folding, stopword removal, and Porter
// stemming. The same pipeline must be applied to documents at index time and
// to queries at evaluation time, so the package exposes a single Analyzer
// that both sides share.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxTermLength bounds the length in bytes, not runes, of an indexed term:
// longer tokens are cut to it after lowercasing, mirroring MG's fixed-size
// term buffer. A cut can split a multibyte UTF-8 sequence; that stays, because
// every stored index was built with it.
const MaxTermLength = 32

// Tokenize splits text into lowercase word tokens. A word is a maximal run
// of letters and digits; everything else separates tokens. The function
// appends to dst and returns it, so callers can reuse buffers.
func Tokenize(dst []string, text string) []string {
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := strings.ToLower(text[start:end])
		if n := len(tok); n > MaxTermLength {
			tok = tok[:MaxTermLength]
		}
		dst = append(dst, tok)
		start = -1
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		flush(i)
	}
	flush(len(text))
	return dst
}

// WordSpan describes one token occurrence inside the original text,
// including the separating non-word text that precedes it. It drives the
// word-based text compression model in package huffman, which must be able
// to reconstruct documents byte for byte.
type WordSpan struct {
	Sep  string // non-word bytes before the word (may be empty)
	Word string // the word itself, original case
}

// SplitWords decomposes text into an alternating sequence of separators and
// words such that concatenating Sep+Word over all spans, plus the returned
// tail, reproduces text exactly. The words are counted in a first pass so the
// result is allocated once: growing it span by span was a tenth of the CPU of
// building a document store.
func SplitWords(text string) (spans []WordSpan, tail string) {
	n := 0
	for i := runEnd(text, 0, false); i < len(text); i = runEnd(text, runEnd(text, i, true), false) {
		n++
	}
	if n == 0 {
		return nil, text
	}
	return AppendWords(make([]WordSpan, 0, n), text)
}

// AppendWords is SplitWords appending the spans to dst, so that a caller
// splitting many documents reuses one buffer.
func AppendWords(dst []WordSpan, text string) (spans []WordSpan, tail string) {
	sep := 0
	for {
		start := runEnd(text, sep, false)
		if start == len(text) {
			return dst, text[sep:]
		}
		end := runEnd(text, start, true)
		dst = append(dst, WordSpan{Sep: text[sep:start], Word: text[start:end]})
		sep = end
	}
}

// asciiWord marks the bytes below utf8.RuneSelf that are letters or digits.
var asciiWord = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
	}
	return t
}()

// runEnd returns where the run of word runes (inWord) or of separator runes
// (!inWord) that starts at text[i] ends. A word rune is a letter or digit;
// invalid UTF-8 decodes, as a range loop decodes it, to utf8.RuneError one byte
// at a time, which separates. ASCII is classified by table.
func runEnd(text string, i int, inWord bool) int {
	for i < len(text) {
		if c := text[i]; c < utf8.RuneSelf {
			if asciiWord[c] != inWord {
				return i
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(text[i:])
		if (unicode.IsLetter(r) || unicode.IsDigit(r)) != inWord {
			return i
		}
		i += n
	}
	return i
}

// Analyzer converts raw text into index terms: tokenize, drop stopwords,
// stem. The zero value applies no stopping and no stemming; use NewAnalyzer
// for the standard pipeline.
type Analyzer struct {
	stopwords map[string]bool
	stem      bool
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithStopwords installs a custom stopword set (terms must be lowercase).
func WithStopwords(words []string) Option {
	return func(a *Analyzer) {
		a.stopwords = make(map[string]bool, len(words))
		for _, w := range words {
			a.stopwords[w] = true
		}
	}
}

// WithoutStopwords disables stopword removal.
func WithoutStopwords() Option {
	return func(a *Analyzer) { a.stopwords = nil }
}

// WithoutStemming disables the Porter stemmer.
func WithoutStemming() Option {
	return func(a *Analyzer) { a.stem = false }
}

// NewAnalyzer returns the standard analysis pipeline: lowercase
// tokenisation, the built-in English stopword list, and Porter stemming.
func NewAnalyzer(opts ...Option) *Analyzer {
	a := &Analyzer{stopwords: defaultStopwords(), stem: true}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// Terms analyses text and appends the resulting index terms to dst.
func (a *Analyzer) Terms(dst []string, text string) []string {
	dst, _ = a.TermsScratch(dst, nil, text)
	return dst
}

// TermsScratch is Terms with a caller-owned tokenizer buffer: raw tokens are
// gathered into raw (reset and reused) and the analysed terms appended to
// dst. Both slices are returned so callers can retain their grown capacity
// across queries — the scoring kernel's steady state then tokenises without
// allocating (lowercase ASCII tokens alias the input string).
func (a *Analyzer) TermsScratch(dst, raw []string, text string) (terms, rawOut []string) {
	raw = Tokenize(raw[:0], text)
	for _, tok := range raw {
		if term, ok := a.token(tok); ok {
			dst = append(dst, term)
		}
	}
	return dst, raw
}

// Term analyses one word as Terms analyses each token: lowercase, cut to
// MaxTermLength bytes (which can split a multibyte UTF-8 sequence), dropped
// if a stopword, stemmed. ok is false when the word yields no term. For a
// word SplitWords yields, Term(w) is the one term Terms(nil, w) returns, or
// none — which lets a document's writer analyse each distinct word once.
func (a *Analyzer) Term(word string) (term string, ok bool) {
	tok := strings.ToLower(word)
	if len(tok) > MaxTermLength {
		tok = tok[:MaxTermLength]
	}
	return a.token(tok)
}

// token analyses one lowercased, cut token: Terms' and Term's one step.
func (a *Analyzer) token(tok string) (string, bool) {
	if a.stopwords[tok] {
		return "", false
	}
	if a.stem {
		tok = Stem(tok)
	}
	return tok, tok != ""
}
