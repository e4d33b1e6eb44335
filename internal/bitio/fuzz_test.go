package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// refReader is the bit-at-a-time reader the windowed Reader replaced, kept
// verbatim as the oracle: one byte of state, every bit through readBit.
type refReader struct {
	data []byte
	pos  int
	cur  byte
	ncur uint
}

func (r *refReader) readBit() (uint, error) {
	if r.ncur == 0 {
		if r.pos >= len(r.data) {
			return 0, ErrUnexpectedEOF
		}
		r.cur = r.data[r.pos]
		r.pos++
		r.ncur = 8
	}
	bit := uint(r.cur >> 7)
	r.cur <<= 1
	r.ncur--
	return bit, nil
}

func (r *refReader) readBits(n uint) (uint64, error) {
	var v uint64
	for i := uint(0); i < n; i++ {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(bit)
	}
	return v, nil
}

func (r *refReader) readUnary() (uint64, error) {
	var v uint64
	for {
		bit, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if bit == 0 {
			return v, nil
		}
		v++
	}
}

func (r *refReader) bitPos() int { return r.pos*8 - int(r.ncur) }

func (r *refReader) remaining() int { return len(r.data)*8 - r.bitPos() }

func (r *refReader) seekBit(bit int) bool {
	if bit < 0 || bit > len(r.data)*8 {
		return false
	}
	r.pos = bit / 8
	r.cur, r.ncur = 0, 0
	if rem := uint(bit % 8); rem != 0 {
		r.cur = r.data[r.pos] << rem
		r.ncur = 8 - rem
		r.pos++
	}
	return true
}

// checkAgainstReference drives the Reader and the reference through the same
// operations over the same data, two ops bytes (kind, argument) per
// operation: every value, every error and every position must agree,
// including after a failed read and after a seek outside the input.
func checkAgainstReference(t *testing.T, data, ops []byte) {
	t.Helper()
	r := NewReader(data)
	ref := &refReader{data: data}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]%6, uint(ops[i+1])
		var got, want uint64
		var gotErr, wantErr error
		switch op {
		case 0:
			var g, w uint
			g, gotErr = r.ReadBit()
			w, wantErr = ref.readBit()
			got, want = uint64(g), uint64(w)
		case 1:
			got, gotErr = r.ReadBits(arg % 65)
			want, wantErr = ref.readBits(arg % 65)
		case 2:
			got, gotErr = r.ReadUnary()
			want, wantErr = ref.readUnary()
		case 3:
			// One past the end and a negative offset are in range of the
			// argument, so refused seeks are compared too.
			bit := int(arg)*(len(data)*8+2)/255 - 1
			if ok := ref.seekBit(bit); ok != (r.SeekBit(bit) == nil) {
				t.Fatalf("op %d: SeekBit(%d) accepted = %v, reference %v", i/2, bit, !ok, ok)
			}
		case 4:
			// BitPos and Remaining are compared after every operation.
		case 5:
			win, n := r.Peek()
			if rem := uint(ref.remaining()); n > rem || n > 64 || (n < 56 && n < rem) {
				t.Fatalf("op %d: Peek reports %d valid bits with %d remaining", i/2, n, rem)
			}
			ahead := *ref
			if want, _ := ahead.readBits(n); n > 0 && win>>(64-n) != want {
				t.Fatalf("op %d: Peek window %#x (%d bits), reference %#x", i/2, win>>(64-n), n, want)
			}
			r.Skip(arg % (n + 1))
			_, _ = ref.readBits(arg % (n + 1))
		}
		if got != want || gotErr != wantErr {
			t.Fatalf("op %d (kind %d, arg %d): got %d, %v; reference %d, %v", i/2, op, arg, got, gotErr, want, wantErr)
		}
		if r.BitPos() != ref.bitPos() || r.Remaining() != ref.remaining() {
			t.Fatalf("op %d (kind %d, arg %d): at bit %d with %d left; reference at %d with %d left",
				i/2, op, arg, r.BitPos(), r.Remaining(), ref.bitPos(), ref.remaining())
		}
	}
}

// FuzzReaderMatchesReference is the differential fuzz of the windowed Reader
// against the bit-at-a-time one it replaced.
func FuzzReaderMatchesReference(f *testing.F) {
	f.Add([]byte{0xa5, 0x5a, 0xff, 0x00, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc}, []byte{1, 17, 0, 2, 1, 64, 3, 9, 5, 30, 1, 3})
	f.Add(bytes.Repeat([]byte{0xff}, 41), []byte{2, 3, 0, 7, 2, 5, 9, 2})
	f.Add(bytes.Repeat([]byte{0xff}, 16), []byte{1, 60, 5, 61, 1, 64, 1, 64})
	f.Add([]byte{}, []byte{0, 1, 8, 2, 3, 0, 5, 0})
	f.Add([]byte{0x80}, []byte{3, 200, 3, 8, 0, 3, 255, 1, 0})
	f.Fuzz(checkAgainstReference)
}

// TestReaderMatchesReferenceRandom runs the fuzz property on every plain
// `go test`: random operation streams over random, all-ones and all-zeros
// inputs of every length around the eight-byte refill boundary.
func TestReaderMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, rng.Intn(40))
		switch trial % 3 {
		case 0:
			rng.Read(data)
		case 1:
			for i := range data {
				data[i] = 0xff
			}
		}
		ops := make([]byte, 120)
		rng.Read(ops)
		checkAgainstReference(t, data, ops)
	}
}

// TestReadUnaryLongRun reads one unary value of eight million ones. A reader
// that rescanned the run at each refill would not finish.
func TestReadUnaryLongRun(t *testing.T) {
	data := append(bytes.Repeat([]byte{0xff}, 1<<20), 0x7f)
	r := NewReader(data)
	got, err := r.ReadUnary()
	if err != nil || got != 8<<20 {
		t.Fatalf("ReadUnary = %d, %v; want %d", got, err, 8<<20)
	}
	if got, err = r.ReadUnary(); err != ErrUnexpectedEOF {
		t.Fatalf("run to the end of input: got %d, %v; want ErrUnexpectedEOF", got, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits left after a failed read", r.Remaining())
	}
}

// TestWriterMatchesBitAtATime checks the accumulator Writer against bits
// appended one at a time, for every field width and long unary runs.
func TestWriterMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		w := NewWriter(0)
		var want []byte
		nbits := 0
		put := func(bit uint64) {
			if nbits%8 == 0 {
				want = append(want, 0)
			}
			want[nbits/8] |= byte(bit&1) << (7 - uint(nbits%8))
			nbits++
		}
		for op := 0; op < 40; op++ {
			switch rng.Intn(3) {
			case 0:
				n, v := uint(rng.Intn(65)), rng.Uint64()
				w.WriteBits(v, n)
				for i := int(n) - 1; i >= 0; i-- {
					put(v >> uint(i))
				}
			case 1:
				v := uint64(rng.Intn(200))
				w.WriteUnary(v)
				for i := uint64(0); i < v; i++ {
					put(1)
				}
				put(0)
			case 2:
				bit := uint(rng.Intn(2))
				w.WriteBits(uint64(bit), 1)
				put(uint64(bit))
			}
			if w.BitLen() != nbits {
				t.Fatalf("trial %d op %d: BitLen %d, want %d", trial, op, w.BitLen(), nbits)
			}
		}
		if got := w.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: wrote %x, want %x", trial, got, want)
		}
	}
}
