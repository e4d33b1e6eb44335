// Package codec implements the integer codes used by MG-style compressed
// inverted files: Elias gamma and delta, Golomb-Rice, and variable-byte.
//
// All codes operate on strictly positive integers (postings store d-gaps ≥ 1
// and within-document frequencies ≥ 1). Encoders append to a bitio.Writer;
// decoders consume from a bitio.Reader so that several codes can be
// interleaved in one stream, exactly as MG interleaves Golomb-coded document
// gaps with gamma-coded frequencies.
package codec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"teraphim/internal/bitio"
)

// ErrNonPositive is returned when a value outside the supported range (< 1)
// is presented for encoding.
var ErrNonPositive = errors.New("codec: value must be >= 1")

// PutGamma appends the Elias gamma code for v (v ≥ 1).
func PutGamma(w *bitio.Writer, v uint64) error {
	if v == 0 {
		return ErrNonPositive
	}
	n := uint(bits.Len64(v)) // number of significant bits
	w.WriteUnary(uint64(n - 1))
	w.WriteBits(v&(1<<(n-1)-1), n-1)
	return nil
}

// Gamma reads one Elias gamma code.
func Gamma(r *bitio.Reader) (uint64, error) {
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if n > 63 {
		return 0, fmt.Errorf("codec: gamma length %d out of range", n)
	}
	rest, err := r.ReadBits(uint(n))
	if err != nil {
		return 0, err
	}
	return 1<<n | rest, nil
}

// GolombParameter returns the Golomb divisor b tuned for a list of n gaps
// drawn from a universe of size u (documents in the collection), following
// Witten, Moffat & Bell: b = ceil(0.69 * u / n) (≈ log(2)·mean gap).
func GolombParameter(u, n uint64) uint64 {
	if n == 0 || u == 0 {
		return 1
	}
	mean := float64(u) / float64(n)
	b := uint64(math.Ceil(0.69 * mean))
	if b < 1 {
		b = 1
	}
	return b
}

// PutGolomb appends the Golomb code of v (v ≥ 1) with divisor b (b ≥ 1):
// quotient (v-1)/b in unary, remainder in truncated binary.
func PutGolomb(w *bitio.Writer, v, b uint64) error {
	if v == 0 {
		return ErrNonPositive
	}
	if b == 0 {
		return errors.New("codec: golomb divisor must be >= 1")
	}
	g := NewGolombCode(b)
	g.put(w, v)
	return nil
}

// GolombCode is a Golomb divisor together with the truncated-binary
// constants derived from it, so a decoder works them out once per list
// rather than once per value. Build one with NewGolombCode.
type GolombCode struct {
	b uint64
	// A remainder below thresh is a short-bit codeword; any other is one bit
	// longer and stored offset by thresh.
	short  uint
	thresh uint64
}

// NewGolombCode returns the code with divisor b (b ≥ 1).
func NewGolombCode(b uint64) GolombCode {
	nbits := uint(bits.Len64(b - 1)) // ceil(log2 b)
	if nbits == 0 {
		// b = 1: the remainder is always 0 and takes no bits — a
		// zero-width short codeword that every remainder uses.
		return GolombCode{b: b, thresh: 1}
	}
	return GolombCode{b: b, short: nbits - 1, thresh: 1<<nbits - b}
}

// put appends the code of v ≥ 1.
func (g *GolombCode) put(w *bitio.Writer, v uint64) {
	q, rem := (v-1)/g.b, (v-1)%g.b
	w.WriteUnary(q)
	if rem < g.thresh {
		w.WriteBits(rem, g.short)
	} else {
		w.WriteBits(rem+g.thresh, g.short+1)
	}
}

// Read reads one Golomb code: quotient in unary, remainder in truncated
// binary.
func (g *GolombCode) Read(r *bitio.Reader) (uint64, error) {
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	rem, err := r.ReadBits(g.short)
	if err != nil {
		return 0, err
	}
	if rem >= g.thresh {
		bit, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		rem = rem<<1 + uint64(bit) - g.thresh
	}
	return q*g.b + rem + 1, nil
}

// PutVByte appends v in the classic variable-byte code (7 data bits per
// byte, high bit set on the final byte). Accepts v ≥ 0.
func PutVByte(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v&0x7f))
		v >>= 7
	}
	return append(dst, byte(v)|0x80)
}

// errVByteOverflow is VByte's error for an integer wider than 64 bits.
var errVByteOverflow = errors.New("codec: vbyte overflows 64 bits")

// VByte decodes one variable-byte integer from src, returning the value and
// the number of bytes consumed. It fails with bitio.ErrUnexpectedEOF, bare,
// when src ends inside the integer, and with another error when the integer
// is wider than 64 bits.
func VByte(src []byte) (uint64, int, error) {
	var v uint64
	var shift uint
	for i, b := range src {
		if shift > 63 || shift == 63 && b&0x7f > 1 {
			return 0, 0, errVByteOverflow
		}
		if b&0x80 != 0 {
			v |= uint64(b&0x7f) << shift
			return v, i + 1, nil
		}
		v |= uint64(b) << shift
		shift += 7
	}
	return 0, 0, bitio.ErrUnexpectedEOF
}
