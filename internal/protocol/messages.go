package protocol

// capHint bounds a wire-supplied element count by what the remaining
// payload could possibly hold (perItem = minimum encoded bytes per
// element), so corrupt or malicious counts cannot trigger huge
// allocations before decoding fails.
func capHint(n uint64, remaining, perItem int) int {
	if perItem < 1 {
		perItem = 1
	}
	max := uint64(remaining/perItem) + 1
	if n > max {
		n = max
	}
	return int(n)
}

// Per-message Type/encode/decode implementations. Encoders append to b and
// return it; decoders must consume the payload exactly.

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (m *Hello) encode(b []byte) []byte {
	// Version 0 encodes to an empty payload, the seed's Hello.
	if m.Version != 0 {
		b = putUint(b, uint64(m.Version))
	}
	return b
}

func (m *Hello) decode(b []byte) error {
	m.Version = 0
	if len(b) == 0 {
		return nil
	}
	var err error
	if m.Version, b, err = getUint32(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeHello)
}

// Type implements Message.
func (*HelloReply) Type() MsgType { return TypeHelloReply }

func (m *HelloReply) encode(b []byte) []byte {
	b = putString(b, m.Name)
	b = putUint(b, uint64(m.NumDocs))
	b = putUint(b, uint64(m.NumTerms))
	b = putUint(b, m.IndexBytes)
	b = putUint(b, m.VocabBytes)
	b = putUint(b, m.StoreBytes)
	// The version trails the seed fields, under Hello's rule.
	if m.Version != 0 {
		b = putUint(b, uint64(m.Version))
	}
	return b
}

func (m *HelloReply) decode(b []byte) error {
	var err error
	if m.Name, b, err = getString(b); err != nil {
		return err
	}
	var v uint64
	if v, b, err = getUint(b); err != nil {
		return err
	}
	m.NumDocs = uint32(v)
	if v, b, err = getUint(b); err != nil {
		return err
	}
	m.NumTerms = uint32(v)
	if m.IndexBytes, b, err = getUint(b); err != nil {
		return err
	}
	if m.VocabBytes, b, err = getUint(b); err != nil {
		return err
	}
	if m.StoreBytes, b, err = getUint(b); err != nil {
		return err
	}
	m.Version = 0
	if len(b) > 0 {
		if m.Version, b, err = getUint32(b); err != nil {
			return err
		}
	}
	return expectEmpty(b, TypeHelloReply)
}

// Type implements Message.
func (*VocabRequest) Type() MsgType { return TypeVocabRequest }

func (*VocabRequest) encode(b []byte) []byte { return b }

func (*VocabRequest) decode(b []byte) error { return expectEmpty(b, TypeVocabRequest) }

// Type implements Message.
func (*VocabReply) Type() MsgType { return TypeVocabReply }

func (m *VocabReply) encode(b []byte) []byte {
	b = putUint(b, uint64(len(m.Terms)))
	// Front-code terms against their predecessor: vocabularies are sorted,
	// so shared prefixes dominate and the CV preprocessing transfer stays
	// close to the on-disk dictionary size.
	prev := ""
	for _, ts := range m.Terms {
		shared := sharedPrefixLen(prev, ts.Term)
		b = putUint(b, uint64(shared))
		b = putString(b, ts.Term[shared:])
		b = putUint(b, uint64(ts.FT))
		prev = ts.Term
	}
	return b
}

func (m *VocabReply) decode(b []byte) error {
	n, b, err := getUint(b)
	if err != nil {
		return err
	}
	if hint := capHint(n, len(b), 3); cap(m.Terms) < hint {
		m.Terms = make([]TermStat, 0, hint)
	} else {
		m.Terms = m.Terms[:0]
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		var shared uint64
		if shared, b, err = getUint(b); err != nil {
			return err
		}
		if shared > uint64(len(prev)) {
			return ErrShortPayload
		}
		var suffix string
		if suffix, b, err = getString(b); err != nil {
			return err
		}
		term := prev[:shared] + suffix
		var ft uint64
		if ft, b, err = getUint(b); err != nil {
			return err
		}
		m.Terms = append(m.Terms, TermStat{Term: term, FT: uint32(ft)})
		prev = term
	}
	return expectEmpty(b, TypeVocabReply)
}

func sharedPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Type implements Message.
func (*RankQuery) Type() MsgType { return TypeRankQuery }

func (m *RankQuery) encode(b []byte) []byte {
	b = putString(b, m.Query)
	b = putUint(b, uint64(m.K))
	b = putWeights(b, m.Weights)
	// Evaluator is an optional trailing field, same convention as
	// Hello/HelloReply Version: encoded only when non-zero, so an
	// exact-evaluator query is byte-identical to the seed frame.
	// FetchTop follows it under the same rule, so a fetch request spells
	// out even a zero Evaluator to keep the field positions fixed.
	if m.Evaluator != 0 || m.FetchTop != 0 {
		b = putUint(b, uint64(m.Evaluator))
	}
	return putFetchTop(b, m.FetchTop, m.Compressed)
}

func (m *RankQuery) decode(b []byte) error {
	var err error
	if m.Query, b, err = getString(b); err != nil {
		return err
	}
	var k uint64
	if k, b, err = getUint(b); err != nil {
		return err
	}
	m.K = uint32(k)
	if m.Weights, b, err = getWeights(b); err != nil {
		return err
	}
	m.Evaluator = 0
	if len(b) > 0 {
		var ev uint64
		if ev, b, err = getUint(b); err != nil {
			return err
		}
		m.Evaluator = uint8(ev)
	}
	if m.FetchTop, m.Compressed, b, err = getFetchTop(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeRankQuery)
}

// Type implements Message.
func (*RankReply) Type() MsgType { return TypeRankReply }

func (m *RankReply) encode(b []byte) []byte {
	b = putUint(b, uint64(len(m.Results)))
	for _, r := range m.Results {
		b = putUint(b, uint64(r.Doc))
		b = putFloat(b, r.Score)
	}
	b = putStats(b, m.Stats)
	if len(m.Docs) > 0 {
		b = putBlobs(b, m.Docs)
	}
	return b
}

func (m *RankReply) decode(b []byte) error {
	n, b, err := getUint(b)
	if err != nil {
		return err
	}
	if hint := capHint(n, len(b), 9); cap(m.Results) < hint {
		m.Results = make([]ScoredDoc, 0, hint)
	} else {
		m.Results = m.Results[:0]
	}
	for i := uint64(0); i < n; i++ {
		var doc uint64
		if doc, b, err = getUint(b); err != nil {
			return err
		}
		var score float64
		if score, b, err = getFloat(b); err != nil {
			return err
		}
		m.Results = append(m.Results, ScoredDoc{Doc: uint32(doc), Score: score})
	}
	if m.Stats, b, err = getStats(b); err != nil {
		return err
	}
	m.Docs = m.Docs[:0]
	if len(b) > 0 {
		if m.Docs, b, err = getBlobs(m.Docs, b); err != nil {
			return err
		}
	}
	return expectEmpty(b, TypeRankReply)
}

// Type implements Message.
func (*ScoreDocs) Type() MsgType { return TypeScoreDocs }

func (m *ScoreDocs) encode(b []byte) []byte {
	b = putString(b, m.Query)
	b = putUint(b, uint64(len(m.Docs)))
	// Delta-code doc ids; requests are sorted by the receptionist.
	prev := uint64(0)
	for _, d := range m.Docs {
		b = putUint(b, uint64(d)-prev)
		prev = uint64(d)
	}
	b = putWeights(b, m.Weights)
	if m.K != 0 || m.FetchTop != 0 {
		b = putUint(b, uint64(m.K))
	}
	return putFetchTop(b, m.FetchTop, m.Compressed)
}

func (m *ScoreDocs) decode(b []byte) error {
	var err error
	if m.Query, b, err = getString(b); err != nil {
		return err
	}
	n, b, err := getUint(b)
	if err != nil {
		return err
	}
	if hint := capHint(n, len(b), 1); cap(m.Docs) < hint {
		m.Docs = make([]uint32, 0, hint)
	} else {
		m.Docs = m.Docs[:0]
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var gap uint64
		if gap, b, err = getUint(b); err != nil {
			return err
		}
		prev += gap
		m.Docs = append(m.Docs, uint32(prev))
	}
	if m.Weights, b, err = getWeights(b); err != nil {
		return err
	}
	m.K = 0
	if len(b) > 0 {
		var k uint64
		if k, b, err = getUint(b); err != nil {
			return err
		}
		m.K = uint32(k)
	}
	if m.FetchTop, m.Compressed, b, err = getFetchTop(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeScoreDocs)
}

// Type implements Message.
func (*FetchDocs) Type() MsgType { return TypeFetchDocs }

func (m *FetchDocs) encode(b []byte) []byte {
	b = putUint(b, uint64(len(m.Docs)))
	prev := uint64(0)
	for _, d := range m.Docs {
		b = putUint(b, uint64(d)-prev)
		prev = uint64(d)
	}
	if m.Compressed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func (m *FetchDocs) decode(b []byte) error {
	n, b, err := getUint(b)
	if err != nil {
		return err
	}
	if hint := capHint(n, len(b), 1); cap(m.Docs) < hint {
		m.Docs = make([]uint32, 0, hint)
	} else {
		m.Docs = m.Docs[:0]
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var gap uint64
		if gap, b, err = getUint(b); err != nil {
			return err
		}
		prev += gap
		m.Docs = append(m.Docs, uint32(prev))
	}
	if len(b) < 1 {
		return ErrShortPayload
	}
	m.Compressed = b[0] == 1
	return expectEmpty(b[1:], TypeFetchDocs)
}

// Type implements Message.
func (*FetchReply) Type() MsgType { return TypeFetchReply }

func (m *FetchReply) encode(b []byte) []byte { return putBlobs(b, m.Docs) }

func (m *FetchReply) decode(b []byte) error {
	var err error
	if m.Docs, b, err = getBlobs(m.Docs, b); err != nil {
		return err
	}
	return expectEmpty(b, TypeFetchReply)
}

// putBlobs appends a counted document list — the FetchReply payload, and
// the optional tail of a RankReply.
func putBlobs(b []byte, docs []DocBlob) []byte {
	b = putUint(b, uint64(len(docs)))
	for _, d := range docs {
		b = putUint(b, uint64(d.Doc))
		b = putString(b, d.Title)
		b = putBytes(b, d.Data)
		if d.Compressed {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// getBlobs decodes a putBlobs list into docs' capacity, returning the
// unread remainder of b.
func getBlobs(docs []DocBlob, b []byte) ([]DocBlob, []byte, error) {
	n, b, err := getUint(b)
	if err != nil {
		return nil, b, err
	}
	if hint := capHint(n, len(b), 4); cap(docs) < hint {
		docs = make([]DocBlob, 0, hint)
	} else {
		docs = docs[:0]
	}
	for i := uint64(0); i < n; i++ {
		var blob DocBlob
		var doc uint64
		if doc, b, err = getUint(b); err != nil {
			return nil, b, err
		}
		blob.Doc = uint32(doc)
		if blob.Title, b, err = getString(b); err != nil {
			return nil, b, err
		}
		if blob.Data, b, err = getBytes(b); err != nil {
			return nil, b, err
		}
		if len(b) < 1 {
			return nil, b, ErrShortPayload
		}
		blob.Compressed = b[0] == 1
		b = b[1:]
		docs = append(docs, blob)
	}
	return docs, b, nil
}

// putFetchTop appends a rank-phase request's piggy-back ask as one integer,
// FetchTop with the Compressed flag in its low bit; nothing when FetchTop is
// zero, so requests that attach no documents keep their previous bytes.
func putFetchTop(b []byte, top uint32, compressed bool) []byte {
	if top == 0 {
		return b
	}
	v := uint64(top) << 1
	if compressed {
		v |= 1
	}
	return putUint(b, v)
}

// getFetchTop reads what putFetchTop wrote; an exhausted payload means no
// documents were asked for.
func getFetchTop(b []byte) (uint32, bool, []byte, error) {
	if len(b) == 0 {
		return 0, false, b, nil
	}
	v, b, err := getUint(b)
	if err != nil {
		return 0, false, b, err
	}
	return uint32(v >> 1), v&1 == 1 && v>>1 != 0, b, nil
}

// Type implements Message.
func (*ModelRequest) Type() MsgType { return TypeModelRequest }

func (*ModelRequest) encode(b []byte) []byte { return b }

func (*ModelRequest) decode(b []byte) error { return expectEmpty(b, TypeModelRequest) }

// Type implements Message.
func (*ModelReply) Type() MsgType { return TypeModelReply }

func (m *ModelReply) encode(b []byte) []byte { return putBytes(b, m.Model) }

func (m *ModelReply) decode(b []byte) error {
	var err error
	if m.Model, b, err = getBytes(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeModelReply)
}

// Type implements Message.
func (*BooleanQuery) Type() MsgType { return TypeBooleanQuery }

func (m *BooleanQuery) encode(b []byte) []byte { return putString(b, m.Expr) }

func (m *BooleanQuery) decode(b []byte) error {
	var err error
	if m.Expr, b, err = getString(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeBooleanQuery)
}

// Type implements Message.
func (*BooleanReply) Type() MsgType { return TypeBooleanReply }

func (m *BooleanReply) encode(b []byte) []byte {
	b = putUint(b, uint64(len(m.Docs)))
	prev := uint64(0)
	for _, d := range m.Docs {
		b = putUint(b, uint64(d)-prev)
		prev = uint64(d)
	}
	return putStats(b, m.Stats)
}

func (m *BooleanReply) decode(b []byte) error {
	n, b, err := getUint(b)
	if err != nil {
		return err
	}
	if hint := capHint(n, len(b), 1); cap(m.Docs) < hint {
		m.Docs = make([]uint32, 0, hint)
	} else {
		m.Docs = m.Docs[:0]
	}
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		var gap uint64
		if gap, b, err = getUint(b); err != nil {
			return err
		}
		prev += gap
		m.Docs = append(m.Docs, uint32(prev))
	}
	if m.Stats, b, err = getStats(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeBooleanReply)
}

// Type implements Message.
func (*IndexRequest) Type() MsgType { return TypeIndexRequest }

func (m *IndexRequest) encode(b []byte) []byte {
	b = putUint(putUint(b, uint64(m.G)), uint64(m.Base))
	// Part and Parts trail under Hello's rule: a whole-reply request is the
	// seed frame.
	if m.Part != 0 || m.Parts != 0 {
		b = putUint(putUint(b, uint64(m.Part)), uint64(m.Parts))
	}
	return b
}

func (m *IndexRequest) decode(b []byte) error {
	var err error
	if m.G, b, err = getUint32(b); err != nil {
		return err
	}
	if m.Base, b, err = getUint32(b); err != nil {
		return err
	}
	m.Part, m.Parts = 0, 0
	if len(b) > 0 {
		if m.Part, b, err = getUint32(b); err != nil {
			return err
		}
		if m.Parts, b, err = getUint32(b); err != nil {
			return err
		}
	}
	return expectEmpty(b, TypeIndexRequest)
}

// Type implements Message.
func (*IndexReply) Type() MsgType { return TypeIndexReply }

// The lists run to the end of the payload, so they carry no length.
func (m *IndexReply) encode(b []byte) []byte {
	return append(putUint(putUint(b, uint64(m.Lo)), uint64(m.Hi)), m.Lists...)
}

func (m *IndexReply) decode(b []byte) error {
	var err error
	if m.Lo, b, err = getUint32(b); err != nil {
		return err
	}
	if m.Hi, b, err = getUint32(b); err != nil {
		return err
	}
	m.Lists = append([]byte(nil), b...)
	return nil
}

// Type implements Message.
func (*ErrorReply) Type() MsgType { return TypeError }

func (m *ErrorReply) encode(b []byte) []byte { return putString(b, m.Message) }

func (m *ErrorReply) decode(b []byte) error {
	var err error
	if m.Message, b, err = getString(b); err != nil {
		return err
	}
	return expectEmpty(b, TypeError)
}
