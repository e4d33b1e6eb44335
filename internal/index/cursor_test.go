package index

import "fmt"

// The whole-list conveniences the tests read lists through; the system
// opens cursors by entry (Open) and scans them by block (NextBlock).

// Cursor returns a cursor over the postings of term.
func (ix *Index) Cursor(term string) (*TermCursor, error) {
	c := &TermCursor{}
	if err := ix.ResetCursor(c, term); err != nil {
		return nil, err
	}
	return c, nil
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
