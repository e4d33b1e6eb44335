package protocol

import (
	"encoding/binary"
	"fmt"
)

// BatchQuery carries several rank-phase requests from different clients in
// one frame, amortizing a librarian round trip across them (the paper's
// cost model charges per contact, not per query). Items are restricted to
// the rank-phase request types — RankQuery and ScoreDocs — because those
// are the per-query fan-out messages worth coalescing; setup and fetch
// traffic stays unbatched.
//
// Sizes is populated during encode and decode with each item's encoded
// payload length, so the receptionist can attribute wire bytes to the
// individual queries in a batch without re-encoding.
type BatchQuery struct {
	Items []Message
	Sizes []int
}

// BatchReply answers a BatchQuery item-for-item: Items[i] is the reply to
// query i, either the matching success reply (RankReply) or an ErrorReply —
// failure stays per-query, one bad query never poisons its batch peers.
type BatchReply struct {
	Items []Message
	Sizes []int
}

// batchableQuery reports whether t may appear inside a BatchQuery.
func batchableQuery(t MsgType) bool {
	return t == TypeRankQuery || t == TypeScoreDocs
}

// batchableReply reports whether t may appear inside a BatchReply.
func batchableReply(t MsgType) bool {
	return t == TypeRankReply || t == TypeError
}

// batch codes a batch's items, each as its type byte, its payload length in
// four little-endian bytes and its payload, and sets sizes to the payload
// lengths. Decode admits only the item types ok accepts.
func (c *coder) batch(t MsgType, items *[]Message, sizes *[]int, ok func(MsgType) bool) {
	n := c.count(len(*items), 5)
	if c.dec {
		*items = make([]Message, n)
		*sizes = make([]int, n)
	} else {
		*sizes = (*sizes)[:0]
	}
	for i := 0; i < n; i++ {
		if !c.dec {
			it := (*items)[i]
			c.b = append(c.b, byte(it.Type()), 0, 0, 0, 0)
			// Encode in place, then backfill the length: no side buffer.
			lenAt := len(c.b) - 4
			c.b = encode(it, c.b)
			sz := len(c.b) - lenAt - 4
			binary.LittleEndian.PutUint32(c.b[lenAt:], uint32(sz))
			*sizes = append(*sizes, sz)
			continue
		}
		if c.left() < 5 {
			c.fail(ErrShortPayload)
			return
		}
		it, sz := MsgType(c.b[c.r]), binary.LittleEndian.Uint32(c.b[c.r+1:])
		c.r += 5
		if !ok(it) {
			c.fail(fmt.Errorf("protocol: %v item %d has type %v, not batchable", t, i, it))
			return
		}
		if uint64(c.left()) < uint64(sz) {
			c.fail(ErrShortPayload)
			return
		}
		msg := messages[it].new()
		if err := decode(msg, c.b[c.r:c.r+int(sz)]); err != nil {
			c.fail(fmt.Errorf("protocol: decode %v item %d (%v): %w", t, i, it, err))
			return
		}
		(*items)[i], (*sizes)[i] = msg, int(sz)
		c.r += int(sz)
	}
}

// Type implements Message.
func (*BatchQuery) Type() MsgType { return TypeBatchQuery }

func (m *BatchQuery) code(c coder) coder {
	c.batch(TypeBatchQuery, &m.Items, &m.Sizes, batchableQuery)
	return c
}

// Type implements Message.
func (*BatchReply) Type() MsgType { return TypeBatchReply }

func (m *BatchReply) code(c coder) coder {
	c.batch(TypeBatchReply, &m.Items, &m.Sizes, batchableReply)
	return c
}
