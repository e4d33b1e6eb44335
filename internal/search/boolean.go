package search

import (
	"fmt"
	"strings"

	"teraphim/internal/index"
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
// Terms pass through the engine's analyzer; a term that analyses to nothing
// (for example a stopword) matches no documents.

// BooleanQuery is a parsed Boolean expression: a tree of analysed terms that
// names no engine, so one parse evaluates over every part of a collection.
type BooleanQuery struct {
	root boolNode
}

type boolNode interface {
	eval(b *boolEval) []uint32
}

// boolEval is one evaluation over parts tiling [0, total): each term's lists
// are read part by part, through one reused cursor, into one list of ids.
type boolEval struct {
	parts []Part
	total uint32
	cur   index.TermCursor
	stats Stats
}

type andNode struct{ left, right boolNode }
type orNode struct{ left, right boolNode }
type notNode struct{ child boolNode }
type termNode struct{ term string }

// ParseBoolean parses a Boolean expression using the engine's analyzer for
// term normalisation.
func (e *Engine) ParseBoolean(expr string) (*BooleanQuery, error) {
	p := &boolParser{tokens: tokenizeBoolean(expr), engine: e}
	root, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.tokens) {
		return nil, fmt.Errorf("search: trailing input at token %q", p.tokens[p.pos])
	}
	return &BooleanQuery{root: root}, nil
}

// EvaluateBoolean is BooleanParts over this engine alone.
func (e *Engine) EvaluateBoolean(q *BooleanQuery) ([]uint32, Stats) {
	return BooleanParts([]Part{{Engine: e}}, q)
}

// BooleanParts returns, ascending, the ids in the space parts tile of the
// documents matching q. NOT complements over the whole space, and a term is
// one list of ids however many parts hold it, so an evaluation allocates the
// same whatever the number of parts.
func BooleanParts(parts []Part, q *BooleanQuery) ([]uint32, Stats) {
	if q == nil || q.root == nil {
		return nil, Stats{}
	}
	b := &boolEval{parts: parts}
	for _, p := range parts {
		b.total += p.Engine.ix.NumDocs()
	}
	docs := q.root.eval(b)
	return docs, b.stats
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
	tokens []string
	pos    int
	engine *Engine
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
		terms := p.engine.analyzer.Terms(nil, tok)
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
	for _, p := range b.parts {
		ft += int(p.Engine.ix.TermFreq(n.term))
	}
	if ft == 0 {
		return nil
	}
	docs := make([]uint32, 0, ft)
	for _, p := range b.parts {
		if !p.Engine.ix.OpenCursor(&b.cur, n.term) {
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
