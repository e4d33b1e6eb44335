// Package textproc supplies the lexical pipeline used when parsing documents
// and queries: tokenisation, case folding, stopword removal, and Porter
// stemming. The same pipeline must be applied to documents at index time and
// to queries at evaluation time, so the package exposes a single Analyzer
// that both sides share.
package textproc

import (
	"strings"
	"unicode"
)

// MaxTermLength bounds the length (in runes) of an indexed term; longer
// tokens are truncated, mirroring MG's fixed-size term buffer.
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
		if a.stopwords != nil && a.stopwords[tok] {
			continue
		}
		if a.stem {
			tok = Stem(tok)
		}
		if tok == "" {
			continue
		}
		dst = append(dst, tok)
	}
	return dst, raw
}

// IsStopword reports whether the analyzer would discard term.
func (a *Analyzer) IsStopword(term string) bool {
	return a.stopwords != nil && a.stopwords[strings.ToLower(term)]
}
