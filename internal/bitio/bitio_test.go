package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	w := NewWriter(4)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBits(uint64(b), 1)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{1<<32 - 1, 32}, {1<<63 - 1, 63}, {0xdeadbeefcafe, 48},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for _, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.v {
			t.Fatalf("ReadBits(%d) = %d, want %d", c.n, got, c.v)
		}
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	w := NewWriter(32)
	vals := []uint64{0, 1, 2, 7, 20, 63}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("ReadUnary = %d, want %d", got, want)
		}
	}
}

func TestBitLenAndPos(t *testing.T) {
	w := NewWriter(8)
	if w.BitLen() != 0 {
		t.Fatalf("empty writer BitLen = %d", w.BitLen())
	}
	w.WriteBits(0x3, 2)
	if w.BitLen() != 2 {
		t.Fatalf("BitLen = %d, want 2", w.BitLen())
	}
	w.WriteBits(0xff, 8)
	if w.BitLen() != 10 {
		t.Fatalf("BitLen = %d, want 10", w.BitLen())
	}
	r := NewReader(w.Bytes())
	if r.BitPos() != 0 {
		t.Fatalf("BitPos = %d, want 0", r.BitPos())
	}
	if _, err := r.ReadBits(3); err != nil {
		t.Fatal(err)
	}
	if r.BitPos() != 3 {
		t.Fatalf("BitPos = %d, want 3", r.BitPos())
	}
}

func TestSeekBit(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xA5A5, 16) // 1010 0101 1010 0101
	data := w.Bytes()
	r := NewReader(data)
	if err := r.SeekBit(4); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x5A {
		t.Fatalf("after seek: got %#x want 0x5a", got)
	}
	if err := r.SeekBit(0); err != nil {
		t.Fatal(err)
	}
	got, err = r.ReadBits(16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xA5A5 {
		t.Fatalf("after rewind: got %#x", got)
	}
	if err := r.SeekBit(17); err == nil {
		t.Fatal("seek past end: want error")
	}
	if err := r.SeekBit(-1); err == nil {
		t.Fatal("negative seek: want error")
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
	if _, err := NewReader(nil).ReadUnary(); err != ErrUnexpectedEOF {
		t.Fatalf("unary on empty: want ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xffff, 16)
	w.Reset()
	if w.BitLen() != 0 {
		t.Fatalf("after reset BitLen = %d", w.BitLen())
	}
	w.WriteBits(0x1, 1)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0x80 {
		t.Fatalf("after reset Bytes = %v", got)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	// Property: any interleaving of fixed-width and unary writes reads back
	// identically.
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		type op struct {
			unary bool
			v     uint64
			n     uint
		}
		ops := make([]op, int(n%50)+1)
		w := NewWriter(64)
		for i := range ops {
			if rng.Intn(2) == 0 {
				ops[i] = op{unary: true, v: uint64(rng.Intn(100))}
				w.WriteUnary(ops[i].v)
			} else {
				width := uint(rng.Intn(64) + 1)
				v := rng.Uint64()
				if width < 64 {
					v &= 1<<width - 1
				}
				ops[i] = op{v: v, n: width}
				w.WriteBits(v, width)
			}
		}
		r := NewReader(w.Bytes())
		for _, o := range ops {
			var got uint64
			var err error
			if o.unary {
				got, err = r.ReadUnary()
			} else {
				got, err = r.ReadBits(o.n)
			}
			if err != nil || got != o.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 17)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 4096; i++ {
		w.WriteBits(uint64(i), 17)
	}
	data := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 17 {
			r = NewReader(data)
		}
		if _, err := r.ReadBits(17); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZeroWidthOperations(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0xFFFF, 0) // zero-width write is a no-op
	if w.BitLen() != 0 {
		t.Fatalf("zero-width write produced %d bits", w.BitLen())
	}
	w.WriteBits(0x5, 3)
	r := NewReader(w.Bytes())
	v, err := r.ReadBits(0)
	if err != nil || v != 0 {
		t.Fatalf("zero-width read = %d, %v", v, err)
	}
	got, err := r.ReadBits(3)
	if err != nil || got != 0x5 {
		t.Fatalf("after zero-width read: %d, %v", got, err)
	}
}
