// Package store implements the compressed document store of a librarian: a
// word-based-Huffman-compressed text archive addressed by dense document id,
// mirroring the MG text file. The paper depends on stored documents being
// compressed so that fetching answers over a network can ship the compressed
// form directly ("a solution that is facilitated in TERAPHIM since all
// documents are stored compressed").
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"teraphim/internal/huffman"
)

// Document is a stored document with its identifying metadata.
type Document struct {
	ID    uint32
	Title string
	Text  string
}

// Store is an immutable compressed document archive. A model is trained once
// (Build) and then only shared: BuildWith compresses further documents under
// it and Concat joins stores that hold it, which is what makes a librarian's
// segment merge a concatenation.
type Store struct {
	model   *huffman.TextModel
	blobs   [][]byte // compressed text per doc
	titles  []string
	rawSize uint64 // total uncompressed text bytes, for compression reporting

	// fetches counts document reads (Fetch + FetchCompressed). The counter
	// exists so ingest paths can prove they did NOT re-read a store: the
	// paper's "faster update" claim dies the moment appending N documents
	// costs O(collection) re-fetches, and the regression test pins that.
	fetches atomic.Uint64
}

// ErrModelMismatch reports a Concat whose inputs were not all compressed
// under one text model: their blobs cannot sit in one store.
var ErrModelMismatch = errors.New("store: stores do not share one text model")

// Build trains a text model over docs and compresses them under it. A model
// is chosen by what Build saw, as in MG's first pass, and never retrained:
// documents added later (BuildWith) code their novel words through its escape
// mechanism, and a model trained on no documents stores text near raw size —
// so train on a representative sample.
func Build(docs []Document) (*Store, error) {
	model, err := TrainModel(docs)
	if err != nil {
		return nil, err
	}
	return BuildWith(model, docs)
}

// TrainModel trains a text model over the text of docs: MG's first pass.
func TrainModel(docs []Document) (*huffman.TextModel, error) {
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = d.Text
	}
	model, err := huffman.NewTextModel(texts)
	if err != nil {
		return nil, fmt.Errorf("store: train model: %w", err)
	}
	return model, nil
}

// BuildWith compresses docs under an existing model into a Store. Documents
// are assigned ids 0..n-1 in order; each Document.ID field is ignored on
// input.
func BuildWith(model *huffman.TextModel, docs []Document) (*Store, error) {
	return Assemble(model, docs, func(i int) ([]byte, error) { return model.CompressDoc(docs[i].Text) })
}

// Assemble is BuildWith with compress(i) supplying document i's blob, which
// must be its text compressed under model: the store takes each document's
// title and raw size from docs and its blob from compress, in order, so a
// writer can code each document from what its one scan recorded.
func Assemble(model *huffman.TextModel, docs []Document, compress func(i int) ([]byte, error)) (*Store, error) {
	s := &Store{model: model, blobs: make([][]byte, len(docs)), titles: make([]string, len(docs))}
	for i, d := range docs {
		blob, err := compress(i)
		if err != nil {
			return nil, fmt.Errorf("store: compress doc %d: %w", i, err)
		}
		s.blobs[i] = blob
		s.titles[i] = d.Title
		s.rawSize += uint64(len(d.Text))
	}
	return s, nil
}

// Concat returns the store holding the documents of stores in order. Every
// input must hold the same model (pointer identity), or the error matches
// ErrModelMismatch; the result shares the inputs' blobs and titles — stores
// are immutable — so nothing is read, decompressed or compressed.
func Concat(stores []*Store) (*Store, error) {
	if len(stores) == 0 {
		return nil, errors.New("store: nothing to concatenate")
	}
	var n int
	for i, in := range stores {
		if in.model != stores[0].model {
			return nil, fmt.Errorf("store: concatenate store %d of %d: %w", i, len(stores), ErrModelMismatch)
		}
		n += len(in.blobs)
	}
	s := &Store{model: stores[0].model, blobs: make([][]byte, 0, n), titles: make([]string, 0, n)}
	for _, in := range stores {
		s.blobs = append(s.blobs, in.blobs...)
		s.titles = append(s.titles, in.titles...)
		s.rawSize += in.rawSize
	}
	return s, nil
}

// NumDocs returns the number of stored documents.
func (s *Store) NumDocs() uint32 { return uint32(len(s.blobs)) }

// Fetches returns the number of document reads served so far (Fetch and
// FetchCompressed calls that resolved to a document).
func (s *Store) Fetches() uint64 { return s.fetches.Load() }

// Fetch returns the decompressed document with the given id.
func (s *Store) Fetch(id uint32) (Document, error) {
	s.fetches.Add(1)
	if int(id) >= len(s.blobs) {
		return Document{}, fmt.Errorf("store: doc %d outside collection of %d", id, len(s.blobs))
	}
	text, err := s.model.DecompressDoc(s.blobs[id])
	if err != nil {
		return Document{}, fmt.Errorf("store: decompress doc %d: %w", id, err)
	}
	return Document{ID: id, Title: s.titles[id], Text: text}, nil
}

// FetchCompressed returns the compressed blob for a document without
// decompressing — the form a librarian ships over the network. The returned
// slice must not be modified.
func (s *Store) FetchCompressed(id uint32) ([]byte, error) {
	s.fetches.Add(1)
	if int(id) >= len(s.blobs) {
		return nil, fmt.Errorf("store: doc %d outside collection of %d", id, len(s.blobs))
	}
	return s.blobs[id], nil
}

// Decompress expands a blob previously returned by FetchCompressed. It is
// exposed so a receptionist holding the collection's model can expand
// documents received over the wire.
func (s *Store) Decompress(blob []byte) (string, error) {
	return s.model.DecompressDoc(blob)
}

// Title returns a document's title without decompressing its body.
func (s *Store) Title(id uint32) (string, error) {
	if int(id) >= len(s.titles) {
		return "", fmt.Errorf("store: doc %d outside collection of %d", id, len(s.titles))
	}
	return s.titles[id], nil
}

// CompressedSize returns the total bytes of compressed document text.
func (s *Store) CompressedSize() uint64 {
	var n uint64
	for _, b := range s.blobs {
		n += uint64(len(b))
	}
	return n
}

// RawSize returns the total bytes of original document text.
func (s *Store) RawSize() uint64 { return s.rawSize }

// Model exposes the compression model the blobs are coded under.
func (s *Store) Model() *huffman.TextModel { return s.model }

// File format (little endian):
//
//	magic "TPST" | version u32 | numDocs u32 | rawSize u64
//	modelLen u32 | model bytes
//	per doc: titleLen u32 | title | blobLen u32 | blob
const (
	storeMagic   = "TPST"
	storeVersion = 1
)

// WriteTo serialises the store.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	cw := bufio.NewWriter(w)
	var n int64
	write := func(p []byte) error {
		m, err := cw.Write(p)
		n += int64(m)
		return err
	}
	put32 := func(v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return write(b[:])
	}
	if err := write([]byte(storeMagic)); err != nil {
		return n, err
	}
	if err := put32(storeVersion); err != nil {
		return n, err
	}
	if err := put32(uint32(len(s.blobs))); err != nil {
		return n, err
	}
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], s.rawSize)
	if err := write(raw[:]); err != nil {
		return n, err
	}
	model := s.model.Marshal()
	if err := put32(uint32(len(model))); err != nil {
		return n, err
	}
	if err := write(model); err != nil {
		return n, err
	}
	for i, blob := range s.blobs {
		if err := put32(uint32(len(s.titles[i]))); err != nil {
			return n, err
		}
		if err := write([]byte(s.titles[i])); err != nil {
			return n, err
		}
		if err := put32(uint32(len(blob))); err != nil {
			return n, err
		}
		if err := write(blob); err != nil {
			return n, err
		}
	}
	return n, cw.Flush()
}

// ReadFrom deserialises a store written by WriteTo.
func ReadFrom(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	get32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("store: read magic: %w", err)
	}
	if string(magic) != storeMagic {
		return nil, fmt.Errorf("store: bad magic %q", magic)
	}
	version, err := get32()
	if err != nil {
		return nil, err
	}
	if version != storeVersion {
		return nil, fmt.Errorf("store: unsupported version %d", version)
	}
	numDocs, err := get32()
	if err != nil {
		return nil, err
	}
	var raw [8]byte
	if _, err := io.ReadFull(br, raw[:]); err != nil {
		return nil, fmt.Errorf("store: read raw size: %w", err)
	}
	rawSize := binary.LittleEndian.Uint64(raw[:])
	modelLen, err := get32()
	if err != nil {
		return nil, err
	}
	modelBytes, err := readChunked(br, uint64(modelLen))
	if err != nil {
		return nil, fmt.Errorf("store: read model: %w", err)
	}
	model, err := huffman.UnmarshalTextModel(modelBytes)
	if err != nil {
		return nil, fmt.Errorf("store: decode model: %w", err)
	}
	// Counts and lengths are untrusted: grow incrementally with bounded
	// hints so corrupt headers fail on short input rather than allocating
	// the claimed sizes.
	s := &Store{
		model:   model,
		blobs:   make([][]byte, 0, boundedHint(uint64(numDocs))),
		titles:  make([]string, 0, boundedHint(uint64(numDocs))),
		rawSize: rawSize,
	}
	for i := uint32(0); i < numDocs; i++ {
		tlen, err := get32()
		if err != nil {
			return nil, fmt.Errorf("store: doc %d title len: %w", i, err)
		}
		title, err := readChunked(br, uint64(tlen))
		if err != nil {
			return nil, fmt.Errorf("store: doc %d title: %w", i, err)
		}
		s.titles = append(s.titles, string(title))
		blen, err := get32()
		if err != nil {
			return nil, fmt.Errorf("store: doc %d blob len: %w", i, err)
		}
		blob, err := readChunked(br, uint64(blen))
		if err != nil {
			return nil, fmt.Errorf("store: doc %d blob: %w", i, err)
		}
		s.blobs = append(s.blobs, blob)
	}
	return s, nil
}

// boundedHint caps an untrusted count used as an allocation capacity hint.
func boundedHint(n uint64) int {
	const maxHint = 1 << 16
	if n > maxHint {
		return maxHint
	}
	return int(n)
}

// readChunked reads exactly n bytes in bounded steps so that an inflated
// length in a corrupt header fails on short input instead of pre-allocating
// the claimed size.
func readChunked(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	out := make([]byte, 0, boundedHint(n))
	for n > 0 {
		step := n
		if step > chunk {
			step = chunk
		}
		buf := make([]byte, step)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		n -= step
	}
	return out, nil
}
