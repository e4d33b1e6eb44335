package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"teraphim/internal/bitio"
	"teraphim/internal/codec"
	"teraphim/internal/search"
)

// A coder runs a message's code method in one direction: encode appends
// each field to b, decode reads each field from b. A message lists its fields
// once, in wire order, and the same list encodes and decodes it. It is passed
// by value so that it stays on the caller's stack.
//
// A decode error is kept in err and marks the whole payload read, so the
// fields after it read as zero and the code method needs no error checks.
type coder struct {
	b []byte
	// r counts the bytes of b that decode has read. Decode moves an integer
	// rather than reslicing b, so that reading a field stores no pointer.
	r   int
	dec bool
	// off is set by more: the trailing fields are absent. Decode zeroes
	// them; encode writes them as any field and then drops b from cut on.
	off bool
	cut int
	err error
}

// overflowError reports a decoded integer wider than the field it is read
// into: the decoder refuses it rather than keep its low bits.
type overflowError struct {
	v    uint64
	bits int
}

func (e *overflowError) Error() string {
	if e.bits == 64 { // v is not known: it is wider than any uint64
		return "protocol: an integer overflows 64 bits"
	}
	return fmt.Sprintf("protocol: %d overflows a %d-bit field", e.v, e.bits)
}

// encode appends m's payload to b.
func encode(m Message, b []byte) []byte {
	c := m.code(coder{b: b})
	if c.off {
		return c.b[:c.cut]
	}
	return c.b
}

// decode reads m from a whole payload; m keeps no reference to it.
func decode(m Message, b []byte) error {
	c := m.code(coder{b: b, dec: true})
	if c.err != nil {
		return c.err
	}
	if n := c.left(); n != 0 {
		return fmt.Errorf("protocol: %v has %d trailing bytes", m.Type(), n)
	}
	return nil
}

// left is how many bytes decode has not read.
func (c *coder) left() int { return len(c.b) - c.r }

func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.r = len(c.b)
}

// short reports a payload that ends inside a field, unless the field is an
// absent trailing one.
func (c *coder) short() {
	if !c.off {
		c.fail(ErrShortPayload)
	}
}

// more opens an optional trailing group of fields. On encode the group is
// written when present; on decode it is read when bytes remain. Once a group
// is absent, every field after it is too: encode leaves them out and decode
// zeroes them.
func (c *coder) more(present bool) {
	switch {
	case c.off:
	case c.dec:
		c.off = c.left() == 0
	case !present:
		c.off, c.cut = true, len(c.b)
	}
}

func (c *coder) put(v uint64) { c.b = codec.PutVByte(c.b, v) }

// uint codes one vbyte integer: encode writes v and returns it, decode
// returns the next integer and refuses one over max. The field primitives
// below inline to a call of it.
func (c *coder) uint(v, max uint64) uint64 {
	if !c.dec {
		c.put(v)
		return v
	}
	if c.r < len(c.b) && c.b[c.r] >= 0x80 {
		c.r++
		return uint64(c.b[c.r-1] & 0x7f) // every max is at least 255
	}
	v, n, err := codec.VByte(c.b[c.r:])
	switch {
	case err == bitio.ErrUnexpectedEOF:
		c.short()
	case err != nil:
		c.fail(&overflowError{bits: 64})
	case v > max:
		c.fail(&overflowError{v, bits.Len64(max)})
	default:
		c.r += n
		return v
	}
	return 0
}

func (c *coder) u64(v *uint64) {
	if x := c.uint(*v, math.MaxUint64); c.dec {
		*v = x
	}
}

func (c *coder) u32(v *uint32) {
	if x := c.uint(uint64(*v), math.MaxUint32); c.dec {
		*v = uint32(x)
	}
}

func (c *coder) u8(v *uint8) {
	if x := c.uint(uint64(*v), math.MaxUint8); c.dec {
		*v = uint8(x)
	}
}

// int codes a non-negative int; decode refuses values over MaxInt64.
func (c *coder) int(v *int) {
	if x := c.uint(uint64(*v), math.MaxInt64); c.dec {
		*v = int(x)
	}
}

// check returns n once the payload left could hold n elements of at least
// min bytes each, so that no corrupt count drives an allocation.
func (c *coder) check(n uint64, min int) int {
	if n > uint64(c.left()/min) {
		c.fail(ErrShortPayload)
		return 0
	}
	return int(n)
}

// count codes a slice length, each element at least min bytes on the wire.
func (c *coder) count(n, min int) int {
	if !c.dec {
		c.put(uint64(n))
		return n
	}
	return c.check(c.uint(0, math.MaxUint64), min)
}

// sized codes the length of *s and, on decode, sizes *s to it, reusing its
// capacity, so that the caller decodes the elements in place.
func sized[T any](c *coder, s *[]T, min int) []T {
	n := c.count(len(*s), min)
	if c.dec {
		if cap(*s) < n {
			*s = make([]T, n)
		} else {
			*s = (*s)[:n]
		}
	}
	return *s
}

// raw reads a length-prefixed byte string, which aliases the payload.
func (c *coder) raw() []byte {
	n := c.check(c.uint(0, math.MaxUint64), 1)
	c.r += n
	return c.b[c.r-n : c.r]
}

// appendRaw appends a length-prefixed byte string, as raw reads it.
func appendRaw[S string | []byte](b []byte, s S) []byte {
	return append(codec.PutVByte(b, uint64(len(s))), s...)
}

func (c *coder) str(s *string) {
	if c.dec {
		*s = string(c.raw())
	} else {
		c.b = appendRaw(c.b, *s)
	}
}

// bytes codes a byte string; decode copies it out of the payload.
func (c *coder) bytes(p *[]byte) {
	if c.dec {
		*p = append([]byte{}, c.raw()...)
	} else {
		c.b = appendRaw(c.b, *p)
	}
}

// rest codes bytes that run to the end of the payload, so carry no length.
func (c *coder) rest(p *[]byte) {
	if c.dec {
		*p = append([]byte(nil), c.b[c.r:]...)
		c.r = len(c.b)
	} else {
		c.b = append(c.b, *p...)
	}
}

// appendFloat appends f's 8 little-endian bytes, as float reads them.
func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// float reads what appendFloat wrote.
func (c *coder) float() float64 {
	if c.left() < 8 {
		c.short()
		return 0
	}
	c.r += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.r-8:]))
}

// flag codes a bool as one byte, 0 or 1; decode refuses any other byte.
func (c *coder) flag(v *bool) {
	if !c.dec {
		c.b = append(c.b, 0)
		if *v {
			c.b[len(c.b)-1] = 1
		}
		return
	}
	switch {
	case c.left() == 0:
		c.short()
		*v = false
	case c.b[c.r] > 1:
		c.fail(&overflowError{uint64(c.b[c.r]), 1})
		*v = false
	default:
		*v = c.b[c.r] == 1
		c.r++
	}
}

// front codes term front-coded against prev, the term before it: the length
// of the prefix they share, then the rest of term.
func (c *coder) front(prev string, term *string) {
	if !c.dec {
		shared := sharedPrefixLen(prev, *term)
		c.put(uint64(shared))
		c.b = appendRaw(c.b, (*term)[shared:])
		return
	}
	shared := c.uint(0, math.MaxUint64)
	if shared > uint64(len(prev)) {
		c.fail(ErrShortPayload)
		shared = 0
	}
	*term = prev[:shared] + string(c.raw())
}

func sharedPrefixLen(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// The list primitives below encode into a local slice and store it in c
// once: one loop appending through c would store c.b per element, which
// while the GC runs is a write barrier per element.

// docs codes a doc-id list as gaps modulo 2⁶⁴: requests are sorted, so the
// gaps are small, but an unsorted list still round-trips. Decode refuses a
// running id over 32 bits.
func (c *coder) docs(d *[]uint32) {
	ds := sized(c, d, 1)
	prev := uint64(0)
	if !c.dec {
		b := c.b
		for _, d := range ds {
			b = codec.PutVByte(b, uint64(d)-prev)
			prev = uint64(d)
		}
		c.b = b
		return
	}
	for i := range ds {
		if prev += c.uint(0, math.MaxUint64); prev > math.MaxUint32 {
			c.fail(&overflowError{prev, 32})
		}
		ds[i] = uint32(prev)
	}
}

// weights codes a weight map as its length plus one, so that nil (use local
// statistics) and empty (no weighted term) differ on the wire.
func (c *coder) weights(w *map[string]float64) {
	if !c.dec {
		if *w == nil {
			c.put(0)
			return
		}
		b := codec.PutVByte(c.b, uint64(len(*w))+1)
		for term, wt := range *w {
			b = appendFloat(appendRaw(b, term), wt)
		}
		c.b = b
		return
	}
	n := c.uint(0, math.MaxUint64)
	if n == 0 {
		*w = nil
		return
	}
	n1 := c.check(n-1, 9)
	m := make(map[string]float64, n1)
	for i := 0; i < n1; i++ {
		term := string(c.raw())
		m[term] = c.float()
	}
	*w = m
}

func (c *coder) stats(s *search.Stats) {
	c.int(&s.TermsLooked)
	c.int(&s.ListsFetched)
	c.u64(&s.PostingsDecoded)
	c.u64(&s.IndexBytesRead)
	c.int(&s.CandidateDocs)
}

// results codes a ranking, per result its document and its score. It is
// the longest list on the query path, so each direction has its own loop:
// one loop through the field primitives took about 1.4 times as long as the
// hand-written coder this replaced.
func (c *coder) results(s *[]ScoredDoc) {
	rs := sized(c, s, 9)
	if !c.dec {
		b := c.b
		for _, r := range rs {
			b = appendFloat(codec.PutVByte(b, uint64(r.Doc)), r.Score)
		}
		c.b = b
		return
	}
	for i := range rs {
		rs[i].Doc = uint32(c.uint(0, math.MaxUint32))
		rs[i].Score = c.float()
	}
}

// blobs codes a counted document list: the FetchReply payload, and the
// optional tail of a RankReply.
func (c *coder) blobs(d *[]DocBlob) {
	ds := sized(c, d, 4)
	for i := range ds {
		b := &ds[i]
		c.u32(&b.Doc)
		c.str(&b.Title)
		c.bytes(&b.Data)
		c.flag(&b.Compressed)
	}
}

// fetchTop codes a rank-phase request's piggy-back ask as one integer,
// FetchTop with the Compressed flag in its low bit.
func (c *coder) fetchTop(top *uint32, compressed *bool) {
	if !c.dec {
		v := uint64(*top) << 1
		if *compressed {
			v |= 1
		}
		c.put(v)
		return
	}
	v := c.uint(0, 1<<33-1)
	*top, *compressed = uint32(v>>1), v&1 == 1 && v>>1 != 0
}
