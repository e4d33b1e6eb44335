// Package bitio provides bit-granularity readers and writers used by the
// compressed-index and compressed-text codecs.
//
// Bits are written most-significant-bit first within each byte, matching the
// layout used by the MG system's compressed inverted files. A Writer
// accumulates bits into an internal buffer; Bytes returns the padded result.
// A Reader consumes bits from a byte slice and tracks its position so that
// skip pointers (byte+bit offsets) can be followed.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the input.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of input")

// Writer accumulates bits MSB-first into a growable byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits in the low nacc bits; higher bits are stale
	nacc uint   // number of pending bits (0..7 between calls)
}

// NewWriter returns a Writer with capacity for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 56 {
		// Up to 7 pending bits plus the field must fit the accumulator.
		w.WriteBits(v>>32, n-32)
		n = 32
	}
	w.acc = w.acc<<n | v&(1<<n-1)
	w.nacc += n
	for w.nacc >= 8 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
}

// WriteUnary appends v encoded in unary: v one-bits followed by a zero.
func (w *Writer) WriteUnary(v uint64) {
	for ; v >= 56; v -= 56 {
		w.WriteBits(1<<56-1, 56)
	}
	w.WriteBits((1<<v-1)<<1, uint(v)+1)
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int {
	return len(w.buf)*8 + int(w.nacc)
}

// Bytes flushes the in-progress byte (zero-padded) and returns the buffer.
// The Writer remains usable; the returned slice aliases internal storage
// until the next Write call, so callers that keep it must copy.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if w.nacc > 0 {
		out = append(out, byte(w.acc<<(8-w.nacc)))
	}
	return out
}

// Reset discards all written bits, retaining allocated capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.nacc = 0, 0
}

// Reader consumes bits MSB-first from a byte slice through a 64-bit window,
// so a fixed-width read is a shift and a unary read a leading-zero count.
type Reader struct {
	data []byte
	pos  int // index of the next byte to load into win
	// win holds the next unread bits left-aligned: its top nwin bits are
	// bits pos*8-nwin .. pos*8-1 of data. Bits below them are either zero or
	// a copy of the stream bits that follow, never anything else, so a refill
	// may OR the same bytes in again.
	win  uint64
	nwin uint // 0..64; at most 63 while eight more bytes remain at pos
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Reset repoints the Reader at data from bit 0, discarding any consumed
// state. It lets callers that hold a Reader by value re-use it across many
// inputs without allocating.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.win, r.nwin = 0, 0
}

// refill tops the window up to at least 56 bits, or to every bit left when
// fewer remain: one eight-byte load while the input allows it, byte by byte
// in the last word.
func (r *Reader) refill() {
	if r.pos+8 <= len(r.data) {
		r.win |= binary.BigEndian.Uint64(r.data[r.pos:]) >> (r.nwin & 63)
		r.pos += int(63-r.nwin) >> 3
		r.nwin |= 56
		return
	}
	for r.nwin <= 56 && r.pos < len(r.data) {
		r.win |= uint64(r.data[r.pos]) << (56 - r.nwin)
		r.pos++
		r.nwin += 8
	}
}

// Peek refills the window and returns it with the number of leading bits
// that are valid: at least 56 unless fewer remain in the input. The bits
// below them are unspecified. Together with Skip it lets a decoder take
// several codes from one refill with a single bounds check.
func (r *Reader) Peek() (win uint64, n uint) {
	r.refill()
	return r.win, r.nwin
}

// Skip consumes n bits, n no larger than the count Peek last returned.
func (r *Reader) Skip(n uint) {
	r.win <<= n
	r.nwin -= n
}

// ReadBit reads a single bit. An empty window takes one byte here, not a
// full refill: that keeps ReadBit small enough to inline into the Huffman
// text decoder, which calls it once per bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nwin == 0 {
		if r.pos >= len(r.data) {
			return 0, ErrUnexpectedEOF
		}
		r.win = uint64(r.data[r.pos]) << 56
		r.pos++
		r.nwin = 8
	}
	bit := uint(r.win >> 63)
	r.win <<= 1
	r.nwin--
	return bit, nil
}

// ReadBits reads n bits (n ≤ 64) and returns them right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > r.nwin {
		return r.readBitsRefill(n)
	}
	v := r.win >> (64 - n)
	r.win <<= n
	r.nwin -= n
	return v, nil
}

// readBitsRefill is ReadBits when the window holds fewer than n bits. A read
// past the end consumes the rest of the input, as reading bit by bit would.
func (r *Reader) readBitsRefill(n uint) (uint64, error) {
	if int(n) > r.Remaining() {
		r.pos = len(r.data)
		r.win, r.nwin = 0, 0
		return 0, ErrUnexpectedEOF
	}
	var v uint64
	for n > r.nwin {
		v = v<<r.nwin | r.win>>(64-r.nwin)
		n -= r.nwin
		r.win, r.nwin = 0, 0
		r.refill()
	}
	v = v<<n | r.win>>(64-n)
	r.win <<= n
	r.nwin -= n
	return v, nil
}

// ReadUnary reads a unary-coded value: the count of one-bits before a zero.
func (r *Reader) ReadUnary() (uint64, error) {
	var v uint64
	for {
		ones := uint(bits.LeadingZeros64(^r.win))
		if ones < r.nwin {
			r.win <<= ones + 1
			r.nwin -= ones + 1
			return v + uint64(ones), nil
		}
		// Every valid bit is a one: count them and look further.
		v += uint64(r.nwin)
		r.win, r.nwin = 0, 0
		r.refill()
		if r.nwin == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
}

// BitPos reports the number of bits consumed so far.
func (r *Reader) BitPos() int {
	return r.pos*8 - int(r.nwin)
}

// SeekBit positions the reader at an absolute bit offset.
func (r *Reader) SeekBit(bit int) error {
	if bit < 0 || bit > len(r.data)*8 {
		return fmt.Errorf("bitio: seek to bit %d outside input of %d bits", bit, len(r.data)*8)
	}
	r.pos = bit / 8
	r.win, r.nwin = 0, 0
	if rem := uint(bit % 8); rem != 0 {
		r.win = uint64(r.data[r.pos]) << (56 + rem)
		r.nwin = 8 - rem
		r.pos++
	}
	return nil
}

// Remaining reports the number of unread bits.
func (r *Reader) Remaining() int {
	return len(r.data)*8 - r.BitPos()
}
