package index

import (
	"fmt"
	"sort"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
)

// fallbackBlock is the decode-block size for lists without skip structures
// (skip interval 0, the skipping ablation).
const fallbackBlock = 64

// TermCursor iterates the postings of one term in increasing document
// order. Next reads sequentially; Advance uses the skip structure to jump
// forward, decoding only the block containing the target — the "skipping"
// optimisation whose effect the paper estimates at 2x for small k'.
//
// Postings are decoded a skip-block at a time into an internal buffer by the
// list's codec.GolombCode, so the per-posting cost is an array read rather
// than a bit-level decode call. The buffer (and the cursor itself, through
// Index.ResetCursor) is reusable across terms and queries, which is what
// keeps the scoring kernel allocation-free in steady state.
type TermCursor struct {
	ft       uint32
	list     []byte
	skipDocs []uint32 // the list's skip table: see termEntry
	skipBits []uint32
	r        bitio.Reader
	code     codec.GolombCode
	skipIvl  uint32

	pos   uint32 // postings consumed so far (next posting index to deliver)
	cur   Posting
	valid bool

	// Decode-ahead block: buf[0:bufLen] holds postings bufStart..bufStart+
	// bufLen-1 of the list; streamPrev is the document id preceding the next
	// block in the bitstream. Invariant: bufStart <= pos <= bufStart+bufLen.
	buf        []Posting
	bufStart   uint32
	bufLen     uint32
	streamPrev int64

	// DecodedPostings counts postings consumed, including those scanned over
	// sequentially but excluding those bypassed via skip pointers or block
	// fast-forwards; it feeds the CPU cost model and is unchanged from the
	// pre-block-decode accounting.
	DecodedPostings uint64
}

// Cursor returns a cursor over the postings of term.
func (ix *Index) Cursor(term string) (*TermCursor, error) {
	c := &TermCursor{}
	if err := ix.ResetCursor(c, term); err != nil {
		return nil, err
	}
	return c, nil
}

// ResetCursor re-initialises c over the postings of term, retaining its
// decode buffer.
func (ix *Index) ResetCursor(c *TermCursor, term string) error {
	if !ix.OpenCursor(c, term) {
		return fmt.Errorf("index: %w: %q", ErrTermNotFound, term)
	}
	return nil
}

// OpenCursor is ResetCursor reporting an absent term as false instead of an
// error. It is the allocation-free path the scoring kernel uses to walk many
// lists with one pooled cursor, where a small segment lacks most query terms.
func (ix *Index) OpenCursor(c *TermCursor, term string) bool {
	i, ok := ix.byTerm[term]
	if !ok {
		return false
	}
	c.ft = ix.entries[i].ft
	c.list, c.skipDocs, c.skipBits = ix.list(int(i))
	c.r.Reset(c.list)
	c.code = codec.NewGolombCode(codec.GolombParameter(uint64(ix.numDocs), uint64(c.ft)))
	c.skipIvl = ix.skipIvl
	c.pos = 0
	c.cur = Posting{}
	c.valid = false
	c.bufStart, c.bufLen = 0, 0
	c.streamPrev = -1
	c.DecodedPostings = 0
	return true
}

// ListBytes reports the exact compressed size in bytes of the cursor's
// postings list. It feeds Stats.IndexBytesRead.
func (c *TermCursor) ListBytes() uint64 { return uint64(len(c.list)) }

// blockSize is the number of postings decoded per fill: the skip interval,
// so that seeks always land on buffer boundaries, or a fixed block when the
// index carries no skip structure.
func (c *TermCursor) blockSize() uint32 {
	if c.skipIvl > 0 {
		return c.skipIvl
	}
	return fallbackBlock
}

// fill decodes the next block of postings into the buffer. It returns false
// at the end of the list or on a corrupt bitstream (which, as before, simply
// terminates the list).
func (c *TermCursor) fill() bool {
	start := c.bufStart + c.bufLen
	if start >= c.ft {
		return false
	}
	n := c.ft - start
	if bs := c.blockSize(); n > bs {
		n = bs
	}
	if uint32(cap(c.buf)) < n {
		// No larger than the list, whatever skip interval the index claims.
		c.buf = make([]Posting, min(c.blockSize(), max(c.ft, fallbackBlock)))
	}
	last, err := c.code.DecodePostingsInto(c.buf[:n], &c.r, c.streamPrev)
	c.bufStart = start
	if err != nil {
		c.bufLen = 0
		return false
	}
	c.bufLen = n
	c.streamPrev = last
	return true
}

// Next advances to the next posting, returning false at the end of the list.
// Past the buffered block it decodes one posting at a time: Next is the
// skip-based access path (Advance), where decoding a whole block to deliver
// one or two postings would waste the very work skipping saves. Full-list
// scans use NextBlock instead.
func (c *TermCursor) Next() bool {
	if c.pos < c.bufStart+c.bufLen {
		c.cur = c.buf[c.pos-c.bufStart]
		c.pos++
		c.valid = true
		c.DecodedPostings++
		return true
	}
	if c.pos >= c.ft {
		c.valid = false
		return false
	}
	var one [1]Posting
	last, err := c.code.DecodePostingsInto(one[:], &c.r, c.streamPrev)
	if err != nil {
		c.valid = false
		return false
	}
	c.streamPrev = last
	c.cur = one[0]
	c.pos++
	c.bufStart, c.bufLen = c.pos, 0
	c.valid = true
	c.DecodedPostings++
	return true
}

// NextBlock returns the next run of consecutive postings, or nil at the end
// of the list. It is the bulk path for full-list scans: one call per decode
// block instead of one per posting. Every returned posting counts as
// consumed. The slice is valid only until the next cursor call.
func (c *TermCursor) NextBlock() []Posting {
	if c.pos >= c.bufStart+c.bufLen {
		if !c.fill() {
			c.valid = false
			return nil
		}
	}
	blk := c.buf[c.pos-c.bufStart : c.bufLen]
	c.pos = c.bufStart + c.bufLen
	c.DecodedPostings += uint64(len(blk))
	c.cur = blk[len(blk)-1]
	c.valid = true
	return blk
}

// Posting returns the current posting; valid only after Next or Advance
// returned true (after NextBlock it is the last posting of the block).
func (c *TermCursor) Posting() Posting { return c.cur }

// Advance positions the cursor at the first posting with Doc >= target,
// using skip pointers where profitable. It returns false when no such
// posting exists. After Advance returns true, Posting is valid.
func (c *TermCursor) Advance(target uint32) bool {
	if c.valid && c.cur.Doc >= target {
		return true
	}
	// Use the skip table to find the last block whose preceding doc is
	// below the target, if it is ahead of our position.
	if n := len(c.skipDocs); n > 0 {
		// block b covers postings [(b)*ivl, (b+1)*ivl); skipDocs[i] is the
		// doc before block i+1 begins, and skip entry j points at block j+1.
		i := sort.Search(n, func(i int) bool { return c.skipDocs[i] >= target })
		if i > 0 {
			j := i - 1 // last skip entry with skipDocs[j] < target
			blockFirstPos := uint32(j+1) * c.skipIvl
			if blockFirstPos > c.pos {
				if blockFirstPos < c.bufStart+c.bufLen {
					// Target block already sits in the decode buffer:
					// fast-forward without touching the bitstream. Skipped
					// postings are not charged to DecodedPostings, exactly
					// as a bitstream seek would not have decoded them.
					c.pos = blockFirstPos
					c.valid = false
				} else {
					if err := c.r.SeekBit(int(c.skipBits[j])); err != nil {
						c.valid = false
						return false
					}
					c.pos = blockFirstPos
					c.bufStart, c.bufLen = blockFirstPos, 0
					c.streamPrev = int64(c.skipDocs[j])
					c.valid = false
				}
			}
		}
	}
	for c.Next() {
		if c.cur.Doc >= target {
			return true
		}
	}
	return false
}

// Decode reads the entire list into dst (appending) and returns it. The
// cursor must be fresh (no Next/Advance calls yet).
func (c *TermCursor) Decode(dst []Posting) ([]Posting, error) {
	if c.pos != 0 {
		return dst, fmt.Errorf("index: Decode on a consumed cursor")
	}
	for {
		blk := c.NextBlock()
		if blk == nil {
			break
		}
		dst = append(dst, blk...)
	}
	if c.pos != c.ft {
		return dst, fmt.Errorf("index: decoded %d of %d postings", c.pos, c.ft)
	}
	return dst, nil
}
