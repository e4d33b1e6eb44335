package search

import (
	"fmt"
	"strings"

	"teraphim/internal/index"
	"teraphim/internal/textproc"
)

// The paper contrasts ranked queries with Boolean queries, whose distributed
// evaluation is trivial (the union of per-librarian result sets). This file
// supplies that Boolean evaluator so the comparison can be reproduced.
//
// Grammar (case-insensitive keywords):
//
//	expr   := orExpr
//	orExpr := andExpr { OR andExpr }
//	andExpr:= notExpr { AND notExpr }
//	notExpr:= NOT notExpr | '(' expr ')' | term
//
// Terms pass through the caller's analyser; a term that analyses to nothing
// (for example a stopword) matches no documents.

type boolNode interface {
	eval(b *boolEval) []uint32
}

// boolEval is one evaluation over parts tiling [0, total): each term is
// looked up once per part into ents, and its lists are read part by part,
// through one reused cursor, into one list of ids.
type boolEval struct {
	parts []Part
	ents  []index.Entry // the term being read's entry in each part
	total uint32
	cur   index.TermCursor
	stats Stats
}

type andNode struct{ left, right boolNode }
type orNode struct{ left, right boolNode }
type notNode struct{ child boolNode }
type termNode struct{ term string }

// BooleanParts returns, ascending, the ids in the space parts tile of the
// documents matching the Boolean expression expr, its terms analysed with a.
// NOT complements over the whole space, and a term is one list of ids however
// many parts hold it, so an evaluation allocates the same whatever the number
// of parts.
func BooleanParts(parts []Part, a *textproc.Analyzer, expr string) ([]uint32, Stats, error) {
	p := &boolParser{tokens: tokenizeBoolean(expr), analyzer: a}
	root, err := p.parseOr()
	if err != nil {
		return nil, Stats{}, err
	}
	if p.pos != len(p.tokens) {
		return nil, Stats{}, fmt.Errorf("search: trailing input at token %q", p.tokens[p.pos])
	}
	b := &boolEval{parts: parts, ents: make([]index.Entry, len(parts))}
	for _, p := range parts {
		b.total += p.Index.NumDocs()
	}
	docs := root.eval(b)
	return docs, b.stats, nil
}

func tokenizeBoolean(expr string) []string {
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for _, r := range expr {
		switch r {
		case '(', ')':
			flush()
			tokens = append(tokens, string(r))
		case ' ', '\t', '\n', '\r':
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return tokens
}

type boolParser struct {
	tokens   []string
	pos      int
	analyzer *textproc.Analyzer
}

func (p *boolParser) peek() string {
	if p.pos < len(p.tokens) {
		return p.tokens[p.pos]
	}
	return ""
}

func (p *boolParser) parseOr() (boolNode, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "or") {
		p.pos++
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &orNode{left: left, right: right}
	}
	return left, nil
}

func (p *boolParser) parseAnd() (boolNode, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for strings.EqualFold(p.peek(), "and") {
		p.pos++
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &andNode{left: left, right: right}
	}
	return left, nil
}

func (p *boolParser) parseNot() (boolNode, error) {
	tok := p.peek()
	switch {
	case tok == "":
		return nil, fmt.Errorf("search: unexpected end of Boolean expression")
	case strings.EqualFold(tok, "not"):
		p.pos++
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &notNode{child: child}, nil
	case tok == "(":
		p.pos++
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf("search: expected ')', got %q", p.peek())
		}
		p.pos++
		return inner, nil
	case tok == ")":
		return nil, fmt.Errorf("search: unexpected ')'")
	default:
		p.pos++
		terms := p.analyzer.Terms(nil, tok)
		if len(terms) == 0 {
			return &termNode{term: ""}, nil
		}
		// A token that analyses to several terms (e.g. "on-line") becomes
		// an implicit AND of its parts.
		var node boolNode = &termNode{term: terms[0]}
		for _, t := range terms[1:] {
			node = &andNode{left: node, right: &termNode{term: t}}
		}
		return node, nil
	}
}

func (n *termNode) eval(b *boolEval) []uint32 {
	b.stats.TermsLooked++
	var ft int
	for i, p := range b.parts {
		b.ents[i] = p.Index.Lookup(n.term)
		ft += int(b.ents[i].FT())
	}
	if ft == 0 {
		return nil
	}
	docs := make([]uint32, 0, ft)
	for i, p := range b.parts {
		if !p.Index.Open(&b.cur, b.ents[i]) {
			continue
		}
		b.stats.ListsFetched++
		for blk := b.cur.NextBlock(); blk != nil; blk = b.cur.NextBlock() {
			for _, post := range blk {
				docs = append(docs, p.Base+post.Doc)
			}
		}
		b.stats.PostingsDecoded += b.cur.DecodedPostings
	}
	return docs
}

func (n *andNode) eval(ev *boolEval) []uint32 {
	a := n.left.eval(ev)
	b := n.right.eval(ev)
	out := a[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func (n *orNode) eval(ev *boolEval) []uint32 {
	a := n.left.eval(ev)
	b := n.right.eval(ev)
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func (n *notNode) eval(b *boolEval) []uint32 {
	excluded := n.child.eval(b)
	out := make([]uint32, 0, int(b.total)-len(excluded))
	j := 0
	for d := uint32(0); d < b.total; d++ {
		if j < len(excluded) && excluded[j] == d {
			j++
			continue
		}
		out = append(out, d)
	}
	return out
}
