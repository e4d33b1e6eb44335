// Package huffman implements canonical Huffman coding and, on top of it, the
// MG-style word-based document compression model: a document is an
// alternating sequence of "words" and "non-words" (separators), each drawn
// from its own Huffman-coded lexicon, with escape codes for novel tokens.
// The paper relies on this ("all documents are stored compressed") both for
// disk residence and for cheap network transmission.
package huffman

import (
	"errors"
	"fmt"
	"sort"

	"teraphim/internal/bitio"
)

// maxCodeLen bounds codeword lengths; with package-merge-free construction we
// simply reject pathological inputs beyond this depth.
const maxCodeLen = 58

var (
	// ErrUnknownSymbol is returned when decoding meets a codeword that was
	// never assigned.
	ErrUnknownSymbol = errors.New("huffman: unknown codeword")
	// ErrEmptyModel is returned when building a code over no symbols.
	ErrEmptyModel = errors.New("huffman: no symbols")
)

// Code is a canonical Huffman code over symbols 0..n-1.
type Code struct {
	lengths []uint8  // codeword length per symbol (0 = unused)
	codes   []uint64 // canonical codeword per symbol, MSB-first

	// Decoding tables, canonical-order: firstCode[l] is the first codeword
	// of length l, firstSym[l] the index into symOrder of its symbol.
	firstCode [maxCodeLen + 2]uint64
	firstSym  [maxCodeLen + 2]int
	symOrder  []uint32 // symbols sorted by (length, symbol)
	maxLen    uint8
}

// New builds a canonical Huffman code from symbol frequencies. Symbols with
// zero frequency receive no codeword. At least one symbol must have nonzero
// frequency; a single-symbol alphabet is assigned a 1-bit code.
func New(freqs []uint64) (*Code, error) {
	lengths, err := codeLengths(freqs)
	if err != nil {
		return nil, err
	}
	return fromLengths(lengths)
}

// NewFromLengths reconstructs a code from stored codeword lengths, as when
// loading a compressed collection from disk.
func NewFromLengths(lengths []uint8) (*Code, error) {
	cp := make([]uint8, len(lengths))
	copy(cp, lengths)
	return fromLengths(cp)
}

// Lengths returns the codeword length for every symbol (0 = unused). The
// returned slice is a copy.
func (c *Code) Lengths() []uint8 {
	out := make([]uint8, len(c.lengths))
	copy(out, c.lengths)
	return out
}

// Encode appends the codeword for sym to w.
func (c *Code) Encode(w *bitio.Writer, sym uint32) error {
	if int(sym) >= len(c.lengths) || c.lengths[sym] == 0 {
		return fmt.Errorf("huffman: symbol %d has no codeword", sym)
	}
	w.WriteBits(c.codes[sym], uint(c.lengths[sym]))
	return nil
}

// Decode reads one codeword from r and returns its symbol.
func (c *Code) Decode(r *bitio.Reader) (uint32, error) {
	var code uint64
	for l := uint8(1); l <= c.maxLen; l++ {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = code<<1 | uint64(bit)
		// count of codewords of length l:
		n := c.countAt(l)
		if n == 0 {
			continue
		}
		first := c.firstCode[l]
		if code >= first && code < first+uint64(n) {
			return c.symOrder[c.firstSym[l]+int(code-first)], nil
		}
	}
	return 0, ErrUnknownSymbol
}

func (c *Code) countAt(l uint8) int {
	return c.firstSym[l+1] - c.firstSym[l]
}

// codeLengths computes optimal codeword lengths via the standard two-queue
// Huffman construction on a heap of (weight, node) pairs.
func codeLengths(freqs []uint64) ([]uint8, error) {
	type node struct {
		weight      uint64
		sym         int // >= 0 for leaves
		left, right int // indexes into nodes for internal
	}
	var nodes []node
	var live []int
	for sym, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{weight: f, sym: sym, left: -1, right: -1})
			live = append(live, len(nodes)-1)
		}
	}
	if len(live) == 0 {
		return nil, ErrEmptyModel
	}
	lengths := make([]uint8, len(freqs))
	if len(live) == 1 {
		lengths[nodes[live[0]].sym] = 1
		return lengths, nil
	}
	// Simple heap over live node indexes.
	less := func(i, j int) bool { return nodes[live[i]].weight < nodes[live[j]].weight }
	h := &nodeHeap{idx: live, less: less}
	h.init()
	for h.len() > 1 {
		a := h.pop()
		b := h.pop()
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, sym: -1, left: a, right: b})
		h.push(len(nodes) - 1)
	}
	root := h.pop()
	// Iterative DFS to assign depths.
	type frame struct {
		n     int
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[f.n]
		if nd.sym >= 0 {
			if f.depth == 0 {
				f.depth = 1
			}
			if f.depth > maxCodeLen {
				return nil, fmt.Errorf("huffman: codeword length %d exceeds limit", f.depth)
			}
			lengths[nd.sym] = f.depth
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return lengths, nil
}

type nodeHeap struct {
	idx  []int
	less func(i, j int) bool
}

func (h *nodeHeap) len() int { return len(h.idx) }

func (h *nodeHeap) init() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *nodeHeap) push(n int) {
	h.idx = append(h.idx, n)
	h.up(len(h.idx) - 1)
}

func (h *nodeHeap) pop() int {
	top := h.idx[0]
	last := len(h.idx) - 1
	h.idx[0] = h.idx[last]
	h.idx = h.idx[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *nodeHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.idx[i], h.idx[p] = h.idx[p], h.idx[i]
		i = p
	}
}

func (h *nodeHeap) down(i int) {
	n := len(h.idx)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.idx[i], h.idx[smallest] = h.idx[smallest], h.idx[i]
		i = smallest
	}
}

// fromLengths assigns canonical codewords: symbols sorted by (length,
// symbol), codes assigned in increasing numeric order.
func fromLengths(lengths []uint8) (*Code, error) {
	c := &Code{lengths: lengths, codes: make([]uint64, len(lengths))}
	var counts [maxCodeLen + 2]int
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		if l > maxCodeLen {
			return nil, fmt.Errorf("huffman: stored length %d for symbol %d exceeds limit", l, sym)
		}
		counts[l]++
		c.symOrder = append(c.symOrder, uint32(sym))
		if l > c.maxLen {
			c.maxLen = l
		}
	}
	if len(c.symOrder) == 0 {
		return nil, ErrEmptyModel
	}
	sort.Slice(c.symOrder, func(i, j int) bool {
		a, b := c.symOrder[i], c.symOrder[j]
		if lengths[a] != lengths[b] {
			return lengths[a] < lengths[b]
		}
		return a < b
	})
	// Kraft check and canonical first-codes.
	var kraft, code uint64
	sym := 0
	for l := uint8(1); l <= c.maxLen+1; l++ {
		c.firstSym[l] = sym
		if l > c.maxLen {
			break
		}
		code <<= 1
		c.firstCode[l] = code
		code += uint64(counts[l])
		sym += counts[l]
		kraft += uint64(counts[l]) << (maxCodeLen + 1 - l)
	}
	if kraft > 1<<(maxCodeLen+1) {
		return nil, errors.New("huffman: lengths violate Kraft inequality")
	}
	// Assign per-symbol codewords.
	next := c.firstCode
	for _, s := range c.symOrder {
		l := lengths[s]
		c.codes[s] = next[l]
		next[l]++
	}
	return c, nil
}
