package protocol

// Each message's code method lists its fields once, in wire order; the coder
// it is given decides whether they are written or read.

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (m *Hello) code(c coder) coder {
	// Version 0 encodes to an empty payload, the seed's Hello.
	c.more(m.Version != 0)
	c.u32(&m.Version)
	return c
}

// Type implements Message.
func (*HelloReply) Type() MsgType { return TypeHelloReply }

func (m *HelloReply) code(c coder) coder {
	c.str(&m.Name)
	c.u32(&m.NumDocs)
	c.u32(&m.NumTerms)
	c.u64(&m.IndexBytes)
	c.u64(&m.VocabBytes)
	c.u64(&m.StoreBytes)
	c.more(m.Version != 0)
	c.u32(&m.Version)
	return c
}

// Type implements Message.
func (*VocabRequest) Type() MsgType { return TypeVocabRequest }

func (*VocabRequest) code(c coder) coder { return c }

// Type implements Message.
func (*VocabReply) Type() MsgType { return TypeVocabReply }

// Terms are front-coded against their predecessor: vocabularies are sorted,
// so shared prefixes dominate and the CV preprocessing transfer stays close
// to the on-disk dictionary size.
func (m *VocabReply) code(c coder) coder {
	ts := sized(&c, &m.Terms, 3)
	prev := ""
	for i := range ts {
		c.front(prev, &ts[i].Term)
		c.u32(&ts[i].FT)
		prev = ts[i].Term
	}
	return c
}

// Type implements Message.
func (*RankQuery) Type() MsgType { return TypeRankQuery }

// Evaluator and FetchTop trail under Hello's rule, so an exact-evaluator
// query is the seed frame; a fetch request spells out even a zero Evaluator
// to keep the field positions fixed.
func (m *RankQuery) code(c coder) coder {
	c.str(&m.Query)
	c.u32(&m.K)
	c.weights(&m.Weights)
	c.more(m.Evaluator != 0 || m.FetchTop != 0)
	c.u8(&m.Evaluator)
	c.more(m.FetchTop != 0)
	c.fetchTop(&m.FetchTop, &m.Compressed)
	return c
}

// Type implements Message.
func (*RankReply) Type() MsgType { return TypeRankReply }

func (m *RankReply) code(c coder) coder {
	c.results(&m.Results)
	c.stats(&m.Stats)
	c.more(len(m.Docs) > 0)
	c.blobs(&m.Docs)
	return c
}

// Type implements Message.
func (*ScoreDocs) Type() MsgType { return TypeScoreDocs }

func (m *ScoreDocs) code(c coder) coder {
	c.str(&m.Query)
	c.docs(&m.Docs)
	c.weights(&m.Weights)
	c.more(m.K != 0 || m.FetchTop != 0)
	c.u32(&m.K)
	c.more(m.FetchTop != 0)
	c.fetchTop(&m.FetchTop, &m.Compressed)
	return c
}

// Type implements Message.
func (*FetchDocs) Type() MsgType { return TypeFetchDocs }

func (m *FetchDocs) code(c coder) coder {
	c.docs(&m.Docs)
	c.flag(&m.Compressed)
	return c
}

// Type implements Message.
func (*FetchReply) Type() MsgType { return TypeFetchReply }

func (m *FetchReply) code(c coder) coder {
	c.blobs(&m.Docs)
	return c
}

// Type implements Message.
func (*ModelRequest) Type() MsgType { return TypeModelRequest }

func (*ModelRequest) code(c coder) coder { return c }

// Type implements Message.
func (*ModelReply) Type() MsgType { return TypeModelReply }

func (m *ModelReply) code(c coder) coder {
	c.bytes(&m.Model)
	return c
}

// Type implements Message.
func (*BooleanQuery) Type() MsgType { return TypeBooleanQuery }

func (m *BooleanQuery) code(c coder) coder {
	c.str(&m.Expr)
	return c
}

// Type implements Message.
func (*BooleanReply) Type() MsgType { return TypeBooleanReply }

func (m *BooleanReply) code(c coder) coder {
	c.docs(&m.Docs)
	c.stats(&m.Stats)
	return c
}

// Type implements Message.
func (*IndexRequest) Type() MsgType { return TypeIndexRequest }

// Part and Parts trail under Hello's rule: a whole-reply request is the seed
// frame.
func (m *IndexRequest) code(c coder) coder {
	c.u32(&m.G)
	c.u32(&m.Base)
	c.more(m.Part != 0 || m.Parts != 0)
	c.u32(&m.Part)
	c.u32(&m.Parts)
	return c
}

// Type implements Message.
func (*IndexReply) Type() MsgType { return TypeIndexReply }

// The lists run to the end of the payload, so they carry no length.
func (m *IndexReply) code(c coder) coder {
	c.u32(&m.Lo)
	c.u32(&m.Hi)
	c.rest(&m.Lists)
	return c
}

// Type implements Message.
func (*ErrorReply) Type() MsgType { return TypeError }

func (m *ErrorReply) code(c coder) coder {
	c.str(&m.Message)
	return c
}
