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
// Message payloads use a compact hand-rolled encoding: vbyte integers,
// length-prefixed strings, IEEE-754 float64 bits. Every message reports its
// encoded size back to the caller so the experiments can account for traffic
// byte-for-byte.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"teraphim/internal/codec"
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

func (t MsgType) String() string {
	switch t {
	case TypeHello:
		return "Hello"
	case TypeHelloReply:
		return "HelloReply"
	case TypeVocabRequest:
		return "VocabRequest"
	case TypeVocabReply:
		return "VocabReply"
	case TypeRankQuery:
		return "RankQuery"
	case TypeRankReply:
		return "RankReply"
	case TypeScoreDocs:
		return "ScoreDocs"
	case TypeFetchDocs:
		return "FetchDocs"
	case TypeFetchReply:
		return "FetchReply"
	case TypeError:
		return "Error"
	case TypeModelRequest:
		return "ModelRequest"
	case TypeModelReply:
		return "ModelReply"
	case TypeBooleanQuery:
		return "BooleanQuery"
	case TypeBooleanReply:
		return "BooleanReply"
	case TypeIndexRequest:
		return "IndexRequest"
	case TypeIndexReply:
		return "IndexReply"
	case TypeBatchQuery:
		return "BatchQuery"
	case TypeBatchReply:
		return "BatchReply"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is any protocol message.
type Message interface {
	Type() MsgType
	encode(b []byte) []byte
	decode(b []byte) error
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
	// Evaluator is the wire form of search.Evaluator — 0 exact, 1 MaxScore,
	// 2 WAND. It is encoded only when non-zero, so exact queries remain
	// byte-identical to the original frame format (the Hello Version
	// convention).
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
// relative to Lo coded by codec.EncodePostings over Hi−Lo groups, padded to a
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

// maxPooledBuf bounds what goes back on the frame-buffer pool; a monster
// frame (an index ship, a corrupt length) must not pin megabytes forever.
const maxPooledBuf = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		*bp = (*bp)[:0]
		bufPool.Put(bp)
	}
}

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
	dst = msg.encode(dst)
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
// total bytes written (header included). The frame buffer is pooled: the
// steady-state write path allocates nothing.
func WriteMessage(w io.Writer, msg Message) (int, error) {
	bp := getBuf()
	b, err := AppendFrame((*bp)[:0], 0, false, msg)
	if err != nil {
		putBuf(bp)
		return 0, err
	}
	*bp = b
	n, err := w.Write(b)
	putBuf(bp)
	if err != nil {
		return n, fmt.Errorf("protocol: write %v: %w", msg.Type(), err)
	}
	return n, nil
}

// ReadMessage reads one seed-framing frame and decodes it, returning the
// message and the total bytes read. The payload buffer is pooled and never
// escapes: every decoder copies what it keeps, so the buffer is returned to
// the pool before ReadMessage returns.
func ReadMessage(r io.Reader) (Message, int, error) {
	var hdr [hdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("protocol: read header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	if length > MaxFrameSize {
		return nil, hdrLen, fmt.Errorf("protocol: frame of %d bytes exceeds limit", length)
	}
	msgType := MsgType(hdr[4])
	bp := getBuf()
	if cap(*bp) < int(length) {
		*bp = make([]byte, 0, length)
	}
	payload := (*bp)[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		putBuf(bp)
		return nil, hdrLen, fmt.Errorf("protocol: read %v payload: %w", msgType, err)
	}
	msg, err := newMessage(msgType)
	if err != nil {
		putBuf(bp)
		return nil, hdrLen + int(length), err
	}
	err = msg.decode(payload)
	putBuf(bp)
	if err != nil {
		return nil, hdrLen + int(length), fmt.Errorf("protocol: decode %v: %w", msgType, err)
	}
	return msg, hdrLen + int(length), nil
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
	reuse map[MsgType]Message
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
	if cap(rd.buf) < int(length) {
		rd.buf = make([]byte, length)
	}
	payload := rd.buf[:length]
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
	if err := msg.decode(payload); err != nil {
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
	if rd.reuse == nil {
		rd.reuse = make(map[MsgType]Message, 8)
	}
	msg, ok := rd.reuse[t]
	if !ok {
		msg, err = newMessage(t)
		if err != nil {
			return nil, tag, n, err
		}
		rd.reuse[t] = msg
	}
	if err := msg.decode(payload); err != nil {
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
	if cap(b) <= maxPooledBuf {
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

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeHello:
		return &Hello{}, nil
	case TypeHelloReply:
		return &HelloReply{}, nil
	case TypeVocabRequest:
		return &VocabRequest{}, nil
	case TypeVocabReply:
		return &VocabReply{}, nil
	case TypeRankQuery:
		return &RankQuery{}, nil
	case TypeRankReply:
		return &RankReply{}, nil
	case TypeScoreDocs:
		return &ScoreDocs{}, nil
	case TypeFetchDocs:
		return &FetchDocs{}, nil
	case TypeFetchReply:
		return &FetchReply{}, nil
	case TypeError:
		return &ErrorReply{}, nil
	case TypeModelRequest:
		return &ModelRequest{}, nil
	case TypeModelReply:
		return &ModelReply{}, nil
	case TypeBooleanQuery:
		return &BooleanQuery{}, nil
	case TypeBooleanReply:
		return &BooleanReply{}, nil
	case TypeIndexRequest:
		return &IndexRequest{}, nil
	case TypeIndexReply:
		return &IndexReply{}, nil
	case TypeBatchQuery:
		return &BatchQuery{}, nil
	case TypeBatchReply:
		return &BatchReply{}, nil
	default:
		return nil, fmt.Errorf("protocol: unknown message type %d", t)
	}
}

// --- primitive encoders -------------------------------------------------

func putUint(b []byte, v uint64) []byte { return codec.PutVByte(b, v) }

func getUint(b []byte) (uint64, []byte, error) {
	v, n, err := codec.VByte(b)
	if err != nil {
		return 0, b, ErrShortPayload
	}
	return v, b[n:], nil
}

// getUint32 is getUint for a field written from a uint32.
func getUint32(b []byte) (uint32, []byte, error) {
	v, rest, err := getUint(b)
	if err == nil && v > math.MaxUint32 {
		err = fmt.Errorf("protocol: %d overflows a 32-bit field", v)
	}
	return uint32(v), rest, err
}

func putString(b []byte, s string) []byte {
	b = putUint(b, uint64(len(s)))
	return append(b, s...)
}

func getString(b []byte) (string, []byte, error) {
	n, b, err := getUint(b)
	if err != nil {
		return "", b, err
	}
	if uint64(len(b)) < n {
		return "", b, ErrShortPayload
	}
	return string(b[:n]), b[n:], nil
}

func putBytes(b []byte, p []byte) []byte {
	b = putUint(b, uint64(len(p)))
	return append(b, p...)
}

func getBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := getUint(b)
	if err != nil {
		return nil, b, err
	}
	if uint64(len(b)) < n {
		return nil, b, ErrShortPayload
	}
	out := make([]byte, n)
	copy(out, b[:n])
	return out, b[n:], nil
}

func putFloat(b []byte, f float64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	return append(b, buf[:]...)
}

func getFloat(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, b, ErrShortPayload
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

func putWeights(b []byte, w map[string]float64) []byte {
	if w == nil {
		return putUint(b, 0)
	}
	// Length+1 so nil (use local stats) and empty (no weighted terms) are
	// distinguishable on the wire.
	b = putUint(b, uint64(len(w))+1)
	for term, wt := range w {
		b = putString(b, term)
		b = putFloat(b, wt)
	}
	return b
}

func getWeights(b []byte) (map[string]float64, []byte, error) {
	n, b, err := getUint(b)
	if err != nil {
		return nil, b, err
	}
	if n == 0 {
		return nil, b, nil
	}
	n--
	// Bound the map size hint by what the payload could hold (each entry
	// is at least 9 bytes): corrupt counts must not drive allocation.
	hint := n
	if max := uint64(len(b)/9) + 1; hint > max {
		hint = max
	}
	w := make(map[string]float64, hint)
	for i := uint64(0); i < n; i++ {
		var term string
		term, b, err = getString(b)
		if err != nil {
			return nil, b, err
		}
		var wt float64
		wt, b, err = getFloat(b)
		if err != nil {
			return nil, b, err
		}
		w[term] = wt
	}
	return w, b, nil
}

func putStats(b []byte, s search.Stats) []byte {
	b = putUint(b, uint64(s.TermsLooked))
	b = putUint(b, uint64(s.ListsFetched))
	b = putUint(b, s.PostingsDecoded)
	b = putUint(b, s.IndexBytesRead)
	b = putUint(b, uint64(s.CandidateDocs))
	return b
}

func getStats(b []byte) (search.Stats, []byte, error) {
	var s search.Stats
	var v uint64
	var err error
	if v, b, err = getUint(b); err != nil {
		return s, b, err
	}
	s.TermsLooked = int(v)
	if v, b, err = getUint(b); err != nil {
		return s, b, err
	}
	s.ListsFetched = int(v)
	if s.PostingsDecoded, b, err = getUint(b); err != nil {
		return s, b, err
	}
	if s.IndexBytesRead, b, err = getUint(b); err != nil {
		return s, b, err
	}
	if v, b, err = getUint(b); err != nil {
		return s, b, err
	}
	s.CandidateDocs = int(v)
	return s, b, nil
}

// expectEmpty returns an error when a payload has trailing bytes.
func expectEmpty(b []byte, t MsgType) error {
	if len(b) != 0 {
		return fmt.Errorf("protocol: %v has %d trailing bytes", t, len(b))
	}
	return nil
}
