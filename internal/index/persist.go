package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"

	"teraphim/internal/codec"
)

// File format (little endian):
//
//	magic "TPIX" | version u32 | numDocs u32 | skipIvl u32 | numTerms u32
//	per doc:  weight f32 | len u32
//	per term: frontCodedTerm (shared u8, suffixLen u8, suffix bytes)
//	          ft u32 | postingsLen u32 | postings bytes
//	          numSkips u32 | skipDocs u32... | skipBits u32...
const (
	indexMagic   = "TPIX"
	indexVersion = 1
)

// errCorrupt is wrapped by every error ReadFrom returns for bytes WriteTo
// could not have written.
var errCorrupt = errors.New("index: corrupt index file")

// WriteTo serialises the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw) // its first error sticks and Flush returns it
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		bw.Write(b[:])
	}
	bw.WriteString(indexMagic)
	for _, v := range []uint32{indexVersion, ix.numDocs, ix.skipIvl, uint32(len(ix.entries))} {
		put(v)
	}
	for d, wt := range ix.weights {
		put(math.Float32bits(wt))
		put(ix.lens[d])
	}
	prev := ""
	for i, e := range ix.entries {
		term := ix.terms.At(uint32(i))
		shared := sharedPrefix(prev, term)
		bw.WriteByte(byte(shared))
		bw.WriteByte(byte(len(term) - shared))
		bw.WriteString(term[shared:])
		prev = term
		list, skipDocs, _ := ix.list(i)
		put(e.ft)
		put(uint32(len(list)))
		bw.Write(list)
		put(uint32(len(skipDocs)))
		for _, v := range ix.skips[e.skip:][:2*len(skipDocs)] { // last documents, then bit offsets
			put(v)
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// ReadFrom deserialises an index written by WriteTo, reading r to its end.
// It trusts nothing it reads: header counts are checked against the bytes
// present before anything is sized by them, and every list goes through the
// checked decoder before it and its skip table are copied into the arenas:
// its documents inside the collection, its sync points the ones its skip
// table holds, its code ending in its last byte with zero pad bits. Golomb
// and gamma give each value one codeword, so such a list is the one the
// builders code, and WriteTo writes the input back. Bytes WriteTo could not
// have written fail with an error wrapping errCorrupt.
func ReadFrom(r io.Reader) (*Index, error) {
	// Sized from what r can tell of its length, the read lands in one
	// allocation; a bytes.Buffer would grow to it by doubling.
	var buf bytes.Buffer
	switch src := r.(type) {
	case interface{ Len() int }: // a bytes.Reader or bytes.Buffer
		buf.Grow(src.Len() + bytes.MinRead)
	case interface{ Stat() (fs.FileInfo, error) }: // an *os.File
		if st, err := src.Stat(); err == nil && st.Mode().IsRegular() {
			buf.Grow(int(st.Size()) + bytes.MinRead)
		}
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("index: read: %w", err)
	}
	d := &fileReader{data: buf.Bytes()}
	if string(d.bytes(4)) != indexMagic || d.u32() != indexVersion {
		return nil, d.fail("not a version %d index", indexVersion)
	}
	numDocs, skipIvl, numTerms := d.u32(), d.u32(), d.u32()
	docs := d.bytes(8 * uint64(numDocs))

	// The first walk over the terms sizes the arenas and the longest list.
	termSection := d.data
	var termBytes, listBytes, skips, longest, prevLen int
	for i := uint32(0); i < numTerms && d.err == nil; i++ {
		rec := d.record()
		if rec.shared > prevLen {
			d.fail("term %d shares %d bytes with a %d-byte predecessor", i, rec.shared, prevLen)
		}
		prevLen = rec.shared + len(rec.suffix)
		termBytes, listBytes = termBytes+prevLen, listBytes+len(rec.list)
		skips, longest = skips+len(rec.skips)/4, max(longest, int(rec.ft))
	}
	if d.err == nil && len(d.data) != 0 {
		d.fail("%d bytes after the last term", len(d.data))
	}
	if d.err != nil {
		return nil, d.err
	}

	ix := newIndex(numDocs, skipIvl, int(numTerms), termBytes, listBytes, skips)
	ix.weights, ix.lens = make([]float32, numDocs), make([]uint32, numDocs)
	for i := range ix.weights {
		ix.weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(docs[8*i:]))
		ix.lens[i] = binary.LittleEndian.Uint32(docs[8*i+4:])
	}
	list := make([]Posting, longest)
	front := make([]byte, 0, 2*255) // a term's shared bytes, then its suffix
	d.data = termSection
	prev := ""
	for i := range int(numTerms) {
		rec := d.record()
		front = append(append(front[:0], prev[:rec.shared]...), rec.suffix...)
		term := ix.terms.At(ix.terms.AddBytes(front))
		if (i > 0 && term <= prev) || rec.shared != sharedPrefix(prev, term) {
			return nil, d.fail("term %q after %q, sharing %d bytes", term, prev, rec.shared)
		}
		prev = term
		n := numSkips(rec.ft, skipIvl)
		if len(rec.skips) != 8*n {
			return nil, d.fail("term %q: %d skip bytes, want %d for %d postings", term, len(rec.skips), 8*n, rec.ft)
		}
		ix.skips = grow(ix.skips, 2*n)
		skips := ix.skips[len(ix.skips):][:2*n]
		for j := range skips {
			skips[j] = binary.LittleEndian.Uint32(rec.skips[4*j:])
		}
		used, err := codec.DecodeList(list[:rec.ft], rec.list, numDocs, int(skipIvl), skips)
		switch {
		case err != nil:
		case (used+7)/8 != len(rec.list):
			err = fmt.Errorf("a %d-bit code in %d bytes", used, len(rec.list))
		case used%8 != 0 && rec.list[len(rec.list)-1]<<(used%8) != 0:
			err = errors.New("pad bits not zero")
		default:
			err = ix.addEntry(rec.ft, append(ix.arena, rec.list...), 2*n)
		}
		if err != nil {
			return nil, d.fail("term %q: %v", term, err)
		}
	}
	return ix.seal(), nil
}

// fileReader walks an index file held in memory. Its first failure sticks:
// every later read returns nothing, so a walk checks once, at its end.
type fileReader struct {
	data []byte
	err  error
}

// record is one term as the file holds it, its byte fields aliasing the file.
type record struct {
	shared int
	suffix []byte
	ft     uint32
	list   []byte
	skips  []byte // the skip table's last documents, then its bit offsets
}

func (d *fileReader) record() (rec record) {
	if hdr := d.bytes(2); hdr != nil {
		rec.shared, rec.suffix = int(hdr[0]), d.bytes(uint64(hdr[1]))
	}
	rec.ft = d.u32()
	rec.list = d.bytes(uint64(d.u32()))
	rec.skips = d.bytes(8 * uint64(d.u32()))
	// Every posting takes at least two bits, so a larger f_t cannot be true:
	// refused here, it never sizes the list a walk decodes into.
	if uint64(rec.ft) > 4*uint64(len(rec.list)) {
		d.fail("%d postings in %d bytes", rec.ft, len(rec.list))
	}
	return rec
}

// bytes returns the next n bytes, or nil once the file runs out.
func (d *fileReader) bytes(n uint64) []byte {
	if d.err == nil && n > uint64(len(d.data)) {
		d.fail("%d bytes wanted, %d left", n, len(d.data))
	}
	if d.err != nil {
		return nil
	}
	b := d.data[:n:n]
	d.data = d.data[n:]
	return b
}

func (d *fileReader) u32() uint32 {
	if b := d.bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (d *fileReader) fail(format string, args ...any) error {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
	}
	return d.err
}

// sharedPrefix is the front coding's shared count: the common prefix of a
// and b, up to the 255 bytes one byte can count.
func sharedPrefix(a, b string) int {
	n, most := 0, min(len(a), len(b), 255)
	for n < most && a[n] == b[n] {
		n++
	}
	return n
}

// countWriter tracks bytes written.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
