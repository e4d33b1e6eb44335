// Package protocol defines the binary wire protocol spoken between
// receptionists and librarians. Frames are length-prefixed so a session can
// run over any stream transport (TCP, an in-process pipe, or the simulated
// links in package simnet).
//
// Frame layout (little endian):
//
//	length u32 (payload bytes, excluding the 5-byte header)
//	type   u8
//	payload
//
// When a connection's first frame is a Hello at this build's Version, every
// frame after the HelloReply instead carries a tagged header — a u32
// exchange id between the type and the payload — so replies can arrive out
// of order:
//
//	length u32 (payload bytes, excluding the 9-byte header)
//	type   u8
//	tag    u32
//	payload
//
// Each message lists its fields once, in wire order, in one code method; a
// coder runs that list to encode the message and to decode it. Fields are
// vbyte integers, length-prefixed strings, IEEE-754 float64 bits and 0/1
// flag bytes. Decoding checks everything it reads: an integer wider than its
// field, a count the payload cannot hold and trailing bytes are errors.
// Every message reports its encoded size back to the caller so the
// experiments can account for traffic byte-for-byte.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"teraphim/internal/search"
)

// MaxFrameSize bounds a frame payload; larger frames are rejected as
// corrupt. Generous enough for a full vocabulary exchange.
const MaxFrameSize = 64 << 20

// MsgType identifies the message in a frame.
type MsgType uint8

// Message types.
const (
	TypeHello MsgType = iota + 1
	TypeHelloReply
	TypeVocabRequest
	TypeVocabReply
	TypeRankQuery
	TypeRankReply
	TypeScoreDocs
	TypeFetchDocs
	TypeFetchReply
	TypeError
	TypeModelRequest
	TypeModelReply
	TypeBooleanQuery
	TypeBooleanReply
	TypeIndexRequest
	TypeIndexReply
	TypeBatchQuery
	TypeBatchReply
)

// messages holds each message type's name and constructor, indexed by type.
var messages = [...]struct {
	name string
	new  func() Message
}{
	TypeHello:        {"Hello", func() Message { return &Hello{} }},
	TypeHelloReply:   {"HelloReply", func() Message { return &HelloReply{} }},
	TypeVocabRequest: {"VocabRequest", func() Message { return &VocabRequest{} }},
	TypeVocabReply:   {"VocabReply", func() Message { return &VocabReply{} }},
	TypeRankQuery:    {"RankQuery", func() Message { return &RankQuery{} }},
	TypeRankReply:    {"RankReply", func() Message { return &RankReply{} }},
	TypeScoreDocs:    {"ScoreDocs", func() Message { return &ScoreDocs{} }},
	TypeFetchDocs:    {"FetchDocs", func() Message { return &FetchDocs{} }},
	TypeFetchReply:   {"FetchReply", func() Message { return &FetchReply{} }},
	TypeError:        {"Error", func() Message { return &ErrorReply{} }},
	TypeModelRequest: {"ModelRequest", func() Message { return &ModelRequest{} }},
	TypeModelReply:   {"ModelReply", func() Message { return &ModelReply{} }},
	TypeBooleanQuery: {"BooleanQuery", func() Message { return &BooleanQuery{} }},
	TypeBooleanReply: {"BooleanReply", func() Message { return &BooleanReply{} }},
	TypeIndexRequest: {"IndexRequest", func() Message { return &IndexRequest{} }},
	TypeIndexReply:   {"IndexReply", func() Message { return &IndexReply{} }},
	TypeBatchQuery:   {"BatchQuery", func() Message { return &BatchQuery{} }},
	TypeBatchReply:   {"BatchReply", func() Message { return &BatchReply{} }},
}

func (t MsgType) String() string {
	if int(t) < len(messages) && messages[t].new != nil {
		return messages[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

func newMessage(t MsgType) (Message, error) {
	if int(t) < len(messages) && messages[t].new != nil {
		return messages[t].new(), nil
	}
	return nil, fmt.Errorf("protocol: unknown message type %d", t)
}

// Message is any protocol message.
type Message interface {
	Type() MsgType
	code(c coder) coder
}

// ErrShortPayload is returned when a payload ends before its message does.
var ErrShortPayload = errors.New("protocol: truncated payload")

// Version is the one wire version this build speaks: tagged framing after the
// Hello, BatchQuery, the rank requests' K and FetchTop fields, and
// IndexRequest's Part and Parts. A
// receptionist sends it in every Hello; a librarian answers every Hello with
// it, and switches a connection to tagged framing only when that connection's
// first frame is a Hello at this version.
const Version uint32 = 2

// ErrProtocolVersion reports a peer that answered the Hello at another
// version. Both sides would frame every later byte differently, so the
// connection is abandoned; redialling cannot help. Test with errors.Is.
var ErrProtocolVersion = errors.New("protocol: peer speaks another wire version")

// Hello requests librarian identification and collection statistics, and
// carries the sender's Version. Version 0 encodes to the seed wire bytes (an
// empty payload).
type Hello struct {
	Version uint32
}

// HelloReply describes a librarian's collection. Version is the librarian's
// own, whatever the Hello asked; like Hello's it is encoded only when
// non-zero.
type HelloReply struct {
	Name       string
	NumDocs    uint32
	NumTerms   uint32
	IndexBytes uint64
	VocabBytes uint64
	StoreBytes uint64
	Version    uint32
}

// TermStat is one vocabulary entry: a term and its document frequency.
type TermStat struct {
	Term string
	FT   uint32
}

// VocabRequest asks for the librarian's full vocabulary (the CV
// receptionist's preprocessing step).
type VocabRequest struct{}

// VocabReply carries the vocabulary, sorted by term.
type VocabReply struct {
	Terms []TermStat
}

// RankQuery asks a librarian for its top-K ranking. Nil Weights means the
// librarian must use its own local statistics (CN); non-nil Weights carry
// the receptionist's global w_{q,t} values (CV).
type RankQuery struct {
	Query   string
	K       uint32
	Weights map[string]float64
	// Evaluator is 0, the exact kernel; a librarian refuses any other value
	// (1 and 2 were MaxScore and WAND). Like the fields after it, it is
	// encoded only when it or a later field is non-zero, so every frame
	// keeps the original format's bytes (the Hello Version convention).
	Evaluator uint8
	// FetchTop asks the librarian to attach the documents of its best
	// FetchTop results to the RankReply (RankReply.Docs), in the wire form
	// Compressed selects (as FetchDocs.Compressed). Optional trailing
	// fields, encoded only when FetchTop is non-zero.
	FetchTop   uint32
	Compressed bool
}

// ScoredDoc is one (local document id, similarity) pair.
type ScoredDoc struct {
	Doc   uint32
	Score float64
}

// RankReply returns a ranking (or the scores of nominated documents) along
// with the evaluation statistics the cost model consumes. Docs carries the
// documents a request's FetchTop asked for, in Results order: those of the
// FetchTop best positive-score results that fit the librarian's per-reply
// byte budget. It need not be a prefix (an oversize document is passed
// over), so the receiver looks documents up by DocBlob.Doc and fetches
// what is missing; zero-score results, which the receptionist's merge
// drops, never get one. It is an optional trailing field, encoded only
// when non-empty.
type RankReply struct {
	Results []ScoredDoc
	Stats   search.Stats
	Docs    []DocBlob
}

// ScoreDocs asks for exact similarities of the nominated local documents
// (the CI librarian fast path). Weights follow RankQuery conventions.
type ScoreDocs struct {
	Query   string
	Docs    []uint32
	Weights map[string]float64
	// K, when non-zero, trims the reply to the K best nominated documents,
	// best-first (score descending, ties by ascending document id); zero
	// returns every nominated score in request order. FetchTop and
	// Compressed are as on RankQuery. All three are optional trailing
	// fields.
	K          uint32
	FetchTop   uint32
	Compressed bool
}

// FetchDocs requests document texts. Compressed selects wire format: true
// ships the stored compressed blobs (decompressed receptionist-side), false
// ships plain text.
type FetchDocs struct {
	Docs       []uint32
	Compressed bool
}

// DocBlob is one returned document.
type DocBlob struct {
	Doc        uint32
	Title      string
	Data       []byte // plain text or compressed blob per FetchDocs.Compressed
	Compressed bool
}

// FetchReply returns requested documents.
type FetchReply struct {
	Docs []DocBlob
}

// ErrorReply reports a librarian-side failure.
type ErrorReply struct {
	Message string
}

// ModelRequest asks for the librarian's document-compression model so the
// receptionist can expand compressed document transfers locally (a one-time
// setup cost that Table 4's compressed-transfer mode amortises).
type ModelRequest struct{}

// ModelReply carries the serialised text-compression model.
type ModelReply struct {
	Model []byte
}

// BooleanQuery asks a librarian to evaluate a Boolean expression against
// its subcollection. Distributed Boolean evaluation needs no global
// information: the collection-wide answer is the union of the
// subcollection answers (§1 of the paper).
type BooleanQuery struct {
	Expr string
}

// BooleanReply returns the matching local document ids, sorted ascending.
type BooleanReply struct {
	Docs  []uint32
	Stats search.Stats
}

// IndexRequest asks a librarian for its postings grouped G adjacent documents
// to a group — the transfer behind the Central Index methodology's offline
// preprocessing, in which "the receptionist has full access to the indexes
// of the subcollections". Base is the global id of the librarian's local
// document 0, so its groups line up with the receptionist's: global document
// d is in group d/G. G must be at least 1.
//
// Parts > 1 asks for part Part of Parts: the lists of the terms whose
// preceding cumulative f_t, over the librarian's terms in lexicographic
// order, falls in [Part·T/Parts, (Part+1)·T/Parts), T being the sum of every
// f_t — so the parts tile the reply in term order with about equal postings,
// and a receptionist can fold one part while the next is grouped and sent.
// Parts ≤ 1 asks for the whole reply. Part and Parts trail the seed fields
// and are encoded only when one is non-zero.
type IndexRequest struct {
	G           uint32
	Base        uint32
	Part, Parts uint32
}

// IndexReply carries a librarian's grouped postings: the global groups
// [Lo, Hi) its documents fall in, and Lists, written by a ListWriter and read
// back by a ListReader — per term, in lexicographic order, the term
// front-coded against the previous one, its group count, and its groups
// relative to Lo coded by codec.AppendList over Hi−Lo groups, padded to a
// byte. A group the librarian shares with a neighbour holds only its own
// documents' frequencies; the receptionist sums the two.
type IndexReply struct {
	Lo, Hi uint32
	Lists  []byte
}

// RemoteError is the receptionist-side error produced when a librarian
// answers with an ErrorReply. A RemoteError arrives on an intact stream (the
// librarian framed a complete reply), so the connection stays usable.
type RemoteError struct {
	Message string
	// Retryable marks a transient librarian-side condition worth
	// re-attempting, as opposed to a semantic failure (a malformed query,
	// an unknown document) that would fail identically on every attempt.
	// Librarian-reported errors default to non-retryable.
	Retryable bool
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("protocol: remote error: %s", e.Message)
}

// Frame header sizes: the seed header and the tagged (pipelined) header.
const (
	hdrLen       = 5
	taggedHdrLen = 9
)

// maxKeptBuf bounds the frame buffer a Reader or a Writer keeps:
// steady-state frames fit, and a set-up frame's buffer is dropped after it.
const maxKeptBuf = 64 << 10

// ReadMessage and WriteMessage borrow a pooled Reader or Writer, so their
// frame buffers are reused as a connection's are.
var (
	readers = sync.Pool{New: func() any { return new(Reader) }}
	writers = sync.Pool{New: func() any { return new(Writer) }}
)

// AppendFrame appends one complete frame (header + payload) for msg to dst.
// Tagged selects the pipelined framing and stamps tag into the header; the
// seed framing ignores tag. The frame is contiguous, so a single Write of
// the result is one syscall — header and payload together.
func AppendFrame(dst []byte, tag uint32, tagged bool, msg Message) ([]byte, error) {
	start := len(dst)
	hl := hdrLen
	if tagged {
		hl = taggedHdrLen
	}
	for i := 0; i < hl; i++ {
		dst = append(dst, 0)
	}
	dst = encode(msg, dst)
	payload := len(dst) - start - hl
	if payload > MaxFrameSize {
		return dst[:start], fmt.Errorf("protocol: %v payload of %d bytes exceeds limit", msg.Type(), payload)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(payload))
	dst[start+4] = byte(msg.Type())
	if tagged {
		binary.LittleEndian.PutUint32(dst[start+5:], tag)
	}
	return dst, nil
}

// WriteMessage frames and writes msg in the seed framing, returning the
// total bytes written (header included): Writer.Write, one-shot. The
// steady-state write path allocates nothing.
func WriteMessage(w io.Writer, msg Message) (int, error) {
	wr := writers.Get().(*Writer)
	wr.W = w
	n, err := wr.Write(0, msg)
	wr.W = nil
	writers.Put(wr)
	return n, err
}

// ReadMessage reads one seed-framing frame and decodes it, returning the
// message and the total bytes read: Reader.Read, one-shot. The payload
// buffer never escapes, since every decoder copies what it keeps.
func ReadMessage(r io.Reader) (Message, int, error) {
	rd := readers.Get().(*Reader)
	rd.R = r
	msg, _, n, err := rd.Read()
	rd.R = nil
	readers.Put(rd)
	return msg, n, err
}

// Reader reads frames from one stream. Its payload buffer is owned by the
// Reader and reused across frames; Tagged selects the pipelined framing.
// A Reader is not safe for concurrent use — one per connection reader.
type Reader struct {
	R      io.Reader
	Tagged bool

	// hdr lives on the Reader, not the stack: a local array passed to
	// io.ReadFull escapes through the interface and would cost one heap
	// allocation per frame on the steady-state read path.
	hdr   [taggedHdrLen]byte
	buf   []byte
	reuse [len(messages)]Message
}

// readPayload reads one frame header and payload into the Reader's buffer.
// The returned payload slice is valid until the next read.
func (rd *Reader) readPayload() (MsgType, uint32, []byte, int, error) {
	hdr := &rd.hdr
	hl := hdrLen
	if rd.Tagged {
		hl = taggedHdrLen
	}
	if _, err := io.ReadFull(rd.R, hdr[:hl]); err != nil {
		return 0, 0, nil, 0, fmt.Errorf("protocol: read header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	if length > MaxFrameSize {
		return 0, 0, nil, hl, fmt.Errorf("protocol: frame of %d bytes exceeds limit", length)
	}
	t := MsgType(hdr[4])
	var tag uint32
	if rd.Tagged {
		tag = binary.LittleEndian.Uint32(hdr[5:9])
	}
	payload := rd.buf[:0]
	if cap(payload) < int(length) {
		payload = make([]byte, length)
	}
	payload = payload[:length]
	if length <= maxKeptBuf {
		rd.buf = payload
	}
	if _, err := io.ReadFull(rd.R, payload); err != nil {
		return t, tag, nil, hl, fmt.Errorf("protocol: read %v payload: %w", t, err)
	}
	return t, tag, payload, hl + int(length), nil
}

// Read reads and decodes one frame into a fresh message — the demultiplexer
// path, where the message escapes to another goroutine.
func (rd *Reader) Read() (Message, uint32, int, error) {
	t, tag, payload, n, err := rd.readPayload()
	if err != nil {
		return nil, tag, n, err
	}
	msg, err := newMessage(t)
	if err != nil {
		return nil, tag, n, err
	}
	if err := decode(msg, payload); err != nil {
		return nil, tag, n, fmt.Errorf("protocol: decode %v: %w", t, err)
	}
	return msg, tag, n, nil
}

// ReadReuse reads and decodes one frame into a per-type message struct
// owned by the Reader, reusing its field capacity across frames — the
// serving-loop path. The returned message (and everything it references) is
// valid only until the next ReadReuse call.
func (rd *Reader) ReadReuse() (Message, uint32, int, error) {
	t, tag, payload, n, err := rd.readPayload()
	if err != nil {
		return nil, tag, n, err
	}
	if int(t) >= len(rd.reuse) || rd.reuse[t] == nil {
		msg, err := newMessage(t)
		if err != nil {
			return nil, tag, n, err
		}
		rd.reuse[t] = msg
	}
	msg := rd.reuse[t]
	if err := decode(msg, payload); err != nil {
		return nil, tag, n, fmt.Errorf("protocol: decode %v: %w", t, err)
	}
	return msg, tag, n, nil
}

// Writer frames messages onto one stream with a reused encode buffer. Each
// Write issues exactly one w.Write call with the contiguous frame. A Writer
// is not safe for concurrent use — serialise callers externally.
type Writer struct {
	W      io.Writer
	Tagged bool

	buf []byte
}

// Frame encodes msg as one complete frame (tag is ignored in the seed
// framing) into the Writer's buffer and returns it without writing — for
// callers that must record the frame's size before its bytes reach the
// wire. The frame is valid until the next Frame or Write.
func (wr *Writer) Frame(tag uint32, msg Message) ([]byte, error) {
	b, err := AppendFrame(wr.buf[:0], tag, wr.Tagged, msg)
	if err != nil {
		return nil, err
	}
	if cap(b) <= maxKeptBuf {
		wr.buf = b
	} else {
		wr.buf = nil
	}
	return b, nil
}

// Write frames and writes msg, returning the bytes written.
func (wr *Writer) Write(tag uint32, msg Message) (int, error) {
	b, err := wr.Frame(tag, msg)
	if err != nil {
		return 0, err
	}
	n, err := wr.W.Write(b)
	if err != nil {
		return n, fmt.Errorf("protocol: write %v: %w", msg.Type(), err)
	}
	return n, nil
}
