package protocol

import (
	"errors"
	"fmt"
	"slices"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
)

// ErrBadIndexReply is wrapped by every error a ListReader returns, and by a
// receptionist rejecting a reply whose groups are not the ones it asked for.
var ErrBadIndexReply = errors.New("protocol: malformed index reply")

// GroupRange returns the groups [lo, hi) that n documents numbered from base
// fall in, g to a group: global document d is in group d/g. base+n must not
// exceed 2³²−1.
func GroupRange(base, n, g uint32) (lo, hi uint32) {
	if lo = base / g; n == 0 {
		return lo, lo
	}
	return lo, (base+n-1)/g + 1
}

// A ListWriter appends term lists to an IndexReply's Lists.
type ListWriter struct {
	reply *IndexReply
	prev  string
	bits  bitio.Writer
}

// NewListWriter returns a writer of reply's lists; reply.Lo and reply.Hi
// must be set first.
func NewListWriter(reply *IndexReply) *ListWriter { return &ListWriter{reply: reply} }

// Append adds term's groups, given relative to the reply's Lo, ascending and
// below Hi−Lo. Terms must come in strictly ascending order, each with at
// least one group.
func (w *ListWriter) Append(term string, groups []codec.Posting) error {
	if term <= w.prev || len(groups) == 0 {
		return fmt.Errorf("protocol: list %q with %d groups after %q", term, len(groups), w.prev)
	}
	w.bits.Reset()
	if err := codec.EncodePostings(&w.bits, groups, w.reply.Hi-w.reply.Lo); err != nil {
		return fmt.Errorf("protocol: list %q: %w", term, err)
	}
	shared := sharedPrefixLen(w.prev, term)
	b := putString(putUint(w.reply.Lists, uint64(shared)), term[shared:])
	w.reply.Lists = append(putUint(b, uint64(len(groups))), w.bits.Bytes()...)
	w.prev = term
	return nil
}

// ListReader is the checked decoder of an IndexReply's Lists, yielding each
// term's groups in global group ids. It implements index.GroupSource.
// Whatever the input, it returns lists of groups in [Lo, Hi), strictly
// ascending, with non-zero frequencies, or an error wrapping
// ErrBadIndexReply; it allocates a list's groups only once their count is
// known to fit the bytes left, so its memory is bounded by its input.
type ListReader struct {
	data  []byte
	lo, n uint32
	prev  string
	count uint64 // groups in the current list
	bits  bitio.Reader
}

// NewListReader returns the reader of reply's lists.
func NewListReader(reply *IndexReply) *ListReader {
	r := &ListReader{data: reply.Lists, lo: reply.Lo}
	if reply.Hi > reply.Lo {
		r.n = reply.Hi - reply.Lo
	}
	return r
}

func (r *ListReader) fail(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadIndexReply, fmt.Sprintf(format, args...))
}

// NextTerm implements index.GroupSource.
func (r *ListReader) NextTerm() (string, error) {
	if len(r.data) == 0 {
		return "", nil
	}
	shared, b, err := getUint(r.data)
	if err != nil || shared > uint64(len(r.prev)) {
		return "", r.fail("term after %q: bad shared prefix", r.prev)
	}
	suffix, b, err := getString(b)
	if err != nil {
		return "", r.fail("term after %q: truncated", r.prev)
	}
	term := r.prev[:shared] + suffix
	if term <= r.prev {
		return "", r.fail("term %q after %q", term, r.prev)
	}
	count, b, err := getUint(b)
	// Every group costs at least two bits, so a count the remaining bytes
	// cannot hold is rejected before anything is decoded.
	if err != nil || count == 0 || count > uint64(r.n) || count > 4*uint64(len(b)) {
		return "", r.fail("term %q: bad group count", term)
	}
	r.prev, r.count, r.data = term, count, b
	return term, nil
}

// AppendGroups implements index.GroupSource. It runs the cursors' block
// decoder and then checks its result: the last group — so, groups ascending,
// every group — below Hi−Lo, and no zero frequency.
func (r *ListReader) AppendGroups(dst []codec.Posting) ([]codec.Posting, error) {
	start := len(dst)
	dst = slices.Grow(dst, int(r.count))[:start+int(r.count)]
	r.bits.Reset(r.data)
	code := codec.NewGolombCode(codec.GolombParameter(uint64(r.n), r.count))
	last, err := code.DecodePostingsInto(dst[start:], &r.bits, -1)
	if err != nil {
		return dst[:start], r.fail("term %q: %v", r.prev, err)
	}
	if last >= int64(r.n) {
		return dst[:start], r.fail("term %q: group %d not below %d", r.prev, last, r.n)
	}
	r.data = r.data[(r.bits.BitPos()+7)/8:]
	for i := start; i < len(dst); i++ {
		if dst[i].FDT == 0 {
			return dst[:start], r.fail("term %q: zero frequency", r.prev)
		}
		dst[i].Doc += r.lo
	}
	return dst, nil
}
