package huffman

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
	"teraphim/internal/intern"
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

// Escape is the symbol, in each lexicon, of every token outside it.
const Escape = 0

// A lexicon numbers its tokens from 1 in a term table, token s being the
// table's string s-1: symbol 0 is the escape of every token outside it, and
// no string, so an empty separator is a token like any other. A one-byte
// token — the single space that is nine separators in ten, a one-letter
// word — is looked up in byByte, so the commonest lookups hash nothing; any
// other in the table, which builds its lookup slots on its first lookup: a
// model that only decodes — the receptionist's, or a static librarian's —
// never builds them.
type lexicon struct {
	byByte [256]uint32
	tokens *intern.Table
}

// symbol returns tok's symbol, or the escape symbol if tok is not in lx.
func (lx *lexicon) symbol(tok string) uint32 {
	if len(tok) == 1 {
		return lx.byByte[tok[0]]
	}
	if id, ok := lx.tokens.Lookup(tok); ok {
		return id + 1
	}
	return Escape
}

// Trainer is MG's first pass one token at a time: it interns every word and
// separator it is shown, counting each occurrence, and Model trains the text
// model on the counts. Shown a collection's tokens in NewTextModel's order —
// per span its separator then its word, then the tail — it trains
// NewTextModel's model, under the same symbols.
type Trainer struct {
	words, seps       *lexicon
	wordFreq, sepFreq []uint64
}

// NewTrainer returns a trainer that has counted nothing.
func NewTrainer() *Trainer {
	return &Trainer{words: &lexicon{tokens: intern.New(0, 0)}, seps: &lexicon{tokens: intern.New(0, 0)}, wordFreq: []uint64{0}, sepFreq: []uint64{0}}
}

// WordSymbol interns and counts word and returns its symbol.
func (t *Trainer) WordSymbol(word string) uint32 { return count(t.words, &t.wordFreq, word) }

// SepSymbol interns and counts sep and returns its symbol.
func (t *Trainer) SepSymbol(sep string) uint32 { return count(t.seps, &t.sepFreq, sep) }

// count interns tok in lx, counts it in freqs and returns its symbol.
func count(lx *lexicon, freqs *[]uint64, tok string) uint32 {
	sym := lx.symbol(tok)
	if sym == Escape {
		if sym = lx.tokens.Add(tok) + 1; len(tok) == 1 {
			lx.byByte[tok[0]] = sym
		}
		*freqs = append(*freqs, 0)
	}
	(*freqs)[sym]++
	return sym
}

// Model trains the text model on the counts: every token counted is a
// lexicon entry, and the escape codeword weighs one per thousand word
// tokens, minimum 1, so that novel tokens in later documents are
// representable at near-maximal length. The model takes the trainer's
// lexicons with their tables sealed, their lookup slots dropped until its
// first encode: call Model once, after the last token.
func (t *Trainer) Model() (*TextModel, error) {
	var total uint64
	for _, f := range t.wordFreq {
		total += f
	}
	t.wordFreq[Escape], t.sepFreq[Escape] = total/1000+1, total/1000+1
	wordCode, err := New(t.wordFreq)
	if err != nil {
		return nil, fmt.Errorf("huffman: word code: %w", err)
	}
	sepCode, err := New(t.sepFreq)
	if err != nil {
		return nil, fmt.Errorf("huffman: separator code: %w", err)
	}
	t.words.tokens.Seal()
	t.seps.tokens.Seal()
	return &TextModel{words: t.words, seps: t.seps, wordCode: wordCode, sepCode: sepCode}, nil
}

// NewTextModel trains a model over the given documents — MG's first pass,
// which only counts tokens.
func NewTextModel(docs []string) (*TextModel, error) {
	t := NewTrainer()
	var spans []textproc.WordSpan
	for _, doc := range docs {
		var tail string
		spans, tail = textproc.AppendWords(spans[:0], doc)
		for _, s := range spans {
			t.SepSymbol(s.Sep)
			t.WordSymbol(s.Word)
		}
		t.SepSymbol(tail)
	}
	return t.Model()
}

// Model returns m: a frozen model numbers a writer's tokens as a Trainer
// does, without learning from them.
func (m *TextModel) Model() (*TextModel, error) { return m, nil }

// CompressDoc returns the compressed byte representation of text.
func (m *TextModel) CompressDoc(text string) ([]byte, error) {
	spans, tail := textproc.SplitWords(text)
	w := bitio.NewWriter(2*len(spans) + 16) // the span count first, then each token
	if err := codec.PutGamma(w, uint64(len(spans))+1); err != nil {
		return nil, err
	}
	for _, s := range spans {
		if err := putToken(w, m.sepCode, m.seps.symbol(s.Sep), s.Sep); err != nil {
			return nil, err
		}
		if err := putToken(w, m.wordCode, m.words.symbol(s.Word), s.Word); err != nil {
			return nil, err
		}
	}
	if err := putToken(w, m.sepCode, m.seps.symbol(tail), tail); err != nil {
		return nil, err
	}
	return append([]byte(nil), w.Bytes()...), nil
}

// WordSymbol returns word's symbol in the model's word lexicon, or the escape
// symbol for a word the model was not trained on.
func (m *TextModel) WordSymbol(word string) uint32 {
	return m.words.symbol(word)
}

// SepSymbol returns sep's symbol in the model's separator lexicon, or Escape.
func (m *TextModel) SepSymbol(sep string) uint32 {
	return m.seps.symbol(sep)
}

// CompressSymbols codes one document from its symbols: per span its
// separator's and its word's, then the tail's, as SepSymbol and WordSymbol
// number them. esc holds, in order, the tokens whose symbol is Escape;
// CompressSymbols codes those it meets and returns the rest. Its bytes are
// CompressDoc's for the same text. It codes through w, which it resets
// first, so a writer of many documents reuses one buffer.
func (m *TextModel) CompressSymbols(w *bitio.Writer, syms []uint32, esc []string) ([]byte, []string, error) {
	w.Reset()
	if err := codec.PutGamma(w, uint64(len(syms)/2)+1); err != nil {
		return nil, esc, err
	}
	codes := [2]*Code{m.sepCode, m.wordCode}
	for i := 0; i < len(syms); i++ {
		if i%2 == 0 && i+1 < len(syms) {
			if code, n := span(m.sepCode, m.wordCode, syms[i], syms[i+1]); n != 0 {
				w.WriteBits(code, n)
				i++
				continue
			}
		}
		sym, tok := syms[i], ""
		if sym == Escape {
			tok, esc = esc[0], esc[1:]
		}
		if err := putToken(w, codes[i%2], sym, tok); err != nil {
			return nil, esc, err
		}
	}
	return append([]byte(nil), w.Bytes()...), esc, nil
}

// span returns separator s's and word t's codewords as one code of n bits,
// or n = 0 when either is the escape or has no codeword or the two pass 56.
func span(sep, word *Code, s, t uint32) (code uint64, n uint) {
	if s != Escape && t != Escape && int(s) < len(sep.lengths) && int(t) < len(word.lengths) {
		if ls, lt := uint(sep.lengths[s]), uint(word.lengths[t]); ls != 0 && lt != 0 && ls+lt <= 56 {
			return sep.codes[s]<<lt | word.codes[t], ls + lt
		}
	}
	return 0, 0
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
	if sym != Escape {
		return code.Encode(w, sym)
	}
	// Escape: codeword 0 then gamma length+1 then raw bytes.
	if err := code.Encode(w, Escape); err != nil {
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
	if sym != Escape {
		if sym > uint32(lx.tokens.Len()) {
			return "", fmt.Errorf("huffman: symbol %d outside lexicon", sym)
		}
		return lx.tokens.At(sym - 1), nil
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
// a uint32 count, then per symbol a vbyte length + raw bytes + one length
// byte for its codeword, the escape symbol first as an empty token.
func (m *TextModel) Marshal() []byte {
	var out []byte
	emit := func(lx *lexicon, code *Code) {
		out = binary.LittleEndian.AppendUint32(out, uint32(lx.tokens.Len()+1))
		lengths := code.Lengths()
		out = append(codec.PutVByte(out, 0), lengths[Escape])
		for id := range uint32(lx.tokens.Len()) {
			tok := lx.tokens.At(id)
			out = codec.PutVByte(out, uint64(len(tok)))
			out = append(append(out, tok...), lengths[id+1])
		}
	}
	emit(m.words, m.wordCode)
	emit(m.seps, m.sepCode)
	return out
}

// UnmarshalTextModel reconstructs a model serialised by Marshal, or fails on
// bytes Marshal could not have written: a non-empty escape token, a token
// that two symbols share, a length coded in more bytes than it needs.
// Its tokens are copied into its lexicons' tables, which build their lookup
// slots only when the model first encodes.
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
		// Each token costs at least two bytes besides its own; a larger
		// count is corrupt, so do not pre-allocate for it.
		hint := min(n, uint32(len(data)/2+1))
		lx := &lexicon{tokens: intern.New(int(hint), max(len(data)-2*int(hint), 0))}
		lengths := make([]uint8, 0, hint)
		for i := uint32(0); i < n; i++ {
			tl, used, err := codec.VByte(data)
			switch {
			case err != nil:
				return nil, nil, fmt.Errorf("huffman: token %d length: %w", i, err)
			case used > 1 && data[used-1]&0x7f == 0:
				return nil, nil, fmt.Errorf("huffman: token %d length coded in %d bytes", i, used)
			}
			data = data[used:]
			if uint64(len(data)) < tl+1 {
				return nil, nil, fmt.Errorf("huffman: token %d truncated", i)
			}
			if tok := data[:tl]; i == Escape {
				if tl != 0 {
					return nil, nil, fmt.Errorf("huffman: %d-byte escape token", tl)
				}
			} else if sym := lx.tokens.AddBytes(tok) + 1; tl == 1 {
				lx.byByte[tok[0]] = sym
			}
			data = data[tl:]
			lengths = append(lengths, data[0])
			data = data[1:]
		}
		// A repeated token's lookup finds its first symbol, not its own.
		for id := range uint32(lx.tokens.Len()) {
			if first, _ := lx.tokens.Lookup(lx.tokens.At(id)); first != id {
				return nil, nil, fmt.Errorf("huffman: symbols %d and %d are both %q", first+1, id+1, lx.tokens.At(id))
			}
		}
		lx.tokens.Seal()
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
