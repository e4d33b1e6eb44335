package huffman

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
	"teraphim/internal/textproc"
)

// TextModel is a word-based semi-static compression model in the style of
// MG: two lexicons (words and separators) with canonical Huffman codes
// trained over the collection, plus an escape mechanism for tokens outside
// either lexicon (escaped tokens are length-prefixed raw bytes).
//
// Build the model once over the collection with NewTextModel, then
// CompressDoc/DecompressDoc arbitrary documents — including ones containing
// novel words, which cost more bits but remain lossless.
type TextModel struct {
	words    *lexicon
	seps     *lexicon
	wordCode *Code
	sepCode  *Code
}

// escape symbols occupy index 0 in each lexicon.
const escapeSym = 0

// A lexicon maps each token to its symbol through one of two tables: a
// one-byte token — the single space that is nine separators in ten, a
// one-letter word — indexes byByte, and any other sits in byToken, so the
// commonest lookups hash nothing. An absent token reads as the escape symbol.
type lexicon struct {
	byByte  [256]uint32
	byToken map[string]uint32
	tokens  []string // tokens[0] is the escape pseudo-token ""
}

func newLexicon() *lexicon {
	return &lexicon{byToken: map[string]uint32{}, tokens: []string{""}}
}

// symbol returns tok's symbol, or the escape symbol if tok is not in lx.
func (lx *lexicon) symbol(tok string) uint32 {
	if len(tok) == 1 {
		return lx.byByte[tok[0]]
	}
	return lx.byToken[tok]
}

// set makes id the symbol of tok.
func (lx *lexicon) set(tok string, id uint32) {
	if len(tok) == 1 {
		lx.byByte[tok[0]] = id
	} else {
		lx.byToken[tok] = id
	}
}

func (lx *lexicon) intern(tok string) uint32 {
	if id := lx.symbol(tok); id != escapeSym {
		return id
	}
	id := uint32(len(lx.tokens))
	lx.tokens = append(lx.tokens, tok)
	lx.set(tok, id)
	return id
}

// NewTextModel trains a model over the given documents — MG's first pass,
// which only counts tokens. Every distinct word and separator seen becomes a
// lexicon entry; the escape codeword is weighted at roughly the count of
// singletons so that novel tokens in future documents stay cheap.
func NewTextModel(docs []string) (*TextModel, error) {
	words := newLexicon()
	seps := newLexicon()
	wordFreq := []uint64{0}
	sepFreq := []uint64{0}
	count := func(lx *lexicon, freqs *[]uint64, tok string) {
		id := lx.intern(tok)
		for int(id) >= len(*freqs) {
			*freqs = append(*freqs, 0)
		}
		(*freqs)[id]++
	}
	var spans []textproc.WordSpan
	for _, doc := range docs {
		var tail string
		spans, tail = textproc.AppendWords(spans[:0], doc)
		for _, s := range spans {
			count(seps, &sepFreq, s.Sep)
			count(words, &wordFreq, s.Word)
		}
		count(seps, &sepFreq, tail)
	}
	// Escape weight: one per thousand tokens, minimum 1, so escapes are
	// representable but near-maximal length.
	var total uint64
	for _, f := range wordFreq {
		total += f
	}
	wordFreq[escapeSym] = total/1000 + 1
	sepFreq[escapeSym] = total/1000 + 1

	wordCode, err := New(wordFreq)
	if err != nil {
		return nil, fmt.Errorf("huffman: word code: %w", err)
	}
	sepCode, err := New(sepFreq)
	if err != nil {
		return nil, fmt.Errorf("huffman: separator code: %w", err)
	}
	return &TextModel{words: words, seps: seps, wordCode: wordCode, sepCode: sepCode}, nil
}

// CompressDoc returns the compressed byte representation of text.
func (m *TextModel) CompressDoc(text string) ([]byte, error) {
	spans, tail := textproc.SplitWords(text)
	syms := make([]uint32, len(spans))
	for i, s := range spans {
		syms[i] = m.WordSymbol(s.Word)
	}
	return m.CompressSpans(spans, syms, tail)
}

// WordSymbol returns word's symbol in the model's word lexicon, or the escape
// symbol for a word the model was not trained on.
func (m *TextModel) WordSymbol(word string) uint32 {
	return m.words.symbol(word)
}

// CompressSpans compresses a document that SplitWords or AppendWords has split
// into spans and tail, syms[i] being WordSymbol(spans[i].Word): a writer that
// meets a word many times looks its symbol up once.
func (m *TextModel) CompressSpans(spans []textproc.WordSpan, syms []uint32, tail string) ([]byte, error) {
	w := bitio.NewWriter(2*len(spans) + 16)
	// Span count first so the decoder knows the structure.
	if err := codec.PutGamma(w, uint64(len(spans))+1); err != nil {
		return nil, err
	}
	for i, s := range spans {
		if err := putToken(w, m.sepCode, m.seps.symbol(s.Sep), s.Sep); err != nil {
			return nil, err
		}
		if err := putToken(w, m.wordCode, syms[i], s.Word); err != nil {
			return nil, err
		}
	}
	if err := putToken(w, m.sepCode, m.seps.symbol(tail), tail); err != nil {
		return nil, err
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// DecompressDoc reconstructs the exact original text.
func (m *TextModel) DecompressDoc(data []byte) (string, error) {
	r := bitio.NewReader(data)
	nspans, err := codec.Gamma(r)
	if err != nil {
		return "", err
	}
	nspans--
	var sb strings.Builder
	for i := uint64(0); i < nspans; i++ {
		sep, err := m.getToken(r, m.seps, m.sepCode)
		if err != nil {
			return "", fmt.Errorf("huffman: span %d separator: %w", i, err)
		}
		word, err := m.getToken(r, m.words, m.wordCode)
		if err != nil {
			return "", fmt.Errorf("huffman: span %d word: %w", i, err)
		}
		sb.WriteString(sep)
		sb.WriteString(word)
	}
	tail, err := m.getToken(r, m.seps, m.sepCode)
	if err != nil {
		return "", fmt.Errorf("huffman: tail: %w", err)
	}
	sb.WriteString(tail)
	return sb.String(), nil
}

// putToken writes tok, whose symbol in code's lexicon is sym.
func putToken(w *bitio.Writer, code *Code, sym uint32, tok string) error {
	if sym != escapeSym {
		return code.Encode(w, sym)
	}
	// Escape: codeword 0 then gamma length+1 then raw bytes.
	if err := code.Encode(w, escapeSym); err != nil {
		return err
	}
	if err := codec.PutGamma(w, uint64(len(tok))+1); err != nil {
		return err
	}
	for i := 0; i < len(tok); i++ {
		w.WriteBits(uint64(tok[i]), 8)
	}
	return nil
}

func (m *TextModel) getToken(r *bitio.Reader, lx *lexicon, code *Code) (string, error) {
	sym, err := code.Decode(r)
	if err != nil {
		return "", err
	}
	if sym != escapeSym {
		if int(sym) >= len(lx.tokens) {
			return "", fmt.Errorf("huffman: symbol %d outside lexicon", sym)
		}
		return lx.tokens[sym], nil
	}
	n, err := codec.Gamma(r)
	if err != nil {
		return "", err
	}
	n--
	if n > uint64(r.Remaining()/8) {
		return "", fmt.Errorf("huffman: escape of %d bytes exceeds remaining input", n)
	}
	buf := make([]byte, n)
	for i := range buf {
		b, err := r.ReadBits(8)
		if err != nil {
			return "", err
		}
		buf[i] = byte(b)
	}
	return string(buf), nil
}

// Marshal serialises the model (lexicons + codeword lengths) so a collection
// can be reopened without retraining. Layout: for each of the two lexicons,
// a uint32 count, then per token a vbyte length + raw bytes + one length
// byte for its codeword.
func (m *TextModel) Marshal() []byte {
	var out []byte
	emit := func(lx *lexicon, code *Code) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(lx.tokens)))
		out = append(out, hdr[:]...)
		lengths := code.Lengths()
		for i, tok := range lx.tokens {
			out = codec.PutVByte(out, uint64(len(tok)))
			out = append(out, tok...)
			out = append(out, lengths[i])
		}
	}
	emit(m.words, m.wordCode)
	emit(m.seps, m.sepCode)
	return out
}

// UnmarshalTextModel reconstructs a model serialised by Marshal.
func UnmarshalTextModel(data []byte) (*TextModel, error) {
	read := func() (*lexicon, *Code, error) {
		if len(data) < 4 {
			return nil, nil, fmt.Errorf("huffman: truncated model header")
		}
		n := binary.LittleEndian.Uint32(data)
		data = data[4:]
		if n == 0 || n > math.MaxInt32 {
			return nil, nil, fmt.Errorf("huffman: implausible lexicon size %d", n)
		}
		hint := n
		if max := uint32(len(data)/2 + 1); hint > max {
			// Each token costs at least two bytes on disk; a larger count
			// is corrupt, so do not pre-allocate for it.
			hint = max
		}
		lx := &lexicon{byToken: make(map[string]uint32, hint), tokens: make([]string, 0, hint)}
		lengths := make([]uint8, 0, hint)
		for i := uint32(0); i < n; i++ {
			tl, used, err := codec.VByte(data)
			if err != nil {
				return nil, nil, fmt.Errorf("huffman: token %d length: %w", i, err)
			}
			data = data[used:]
			if uint64(len(data)) < tl+1 {
				return nil, nil, fmt.Errorf("huffman: token %d truncated", i)
			}
			tok := string(data[:tl])
			data = data[tl:]
			lx.tokens = append(lx.tokens, tok)
			if i != escapeSym {
				lx.set(tok, i)
			}
			lengths = append(lengths, data[0])
			data = data[1:]
		}
		code, err := NewFromLengths(lengths)
		if err != nil {
			return nil, nil, err
		}
		return lx, code, nil
	}
	words, wordCode, err := read()
	if err != nil {
		return nil, fmt.Errorf("huffman: word lexicon: %w", err)
	}
	seps, sepCode, err := read()
	if err != nil {
		return nil, fmt.Errorf("huffman: separator lexicon: %w", err)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("huffman: %d trailing bytes after model", len(data))
	}
	return &TextModel{words: words, seps: seps, wordCode: wordCode, sepCode: sepCode}, nil
}

// sortedTokens is a test helper exposing lexicon contents deterministically.
func (m *TextModel) sortedTokens() []string {
	out := append([]string(nil), m.words.tokens[1:]...)
	sort.Strings(out)
	return out
}
