package core

import (
	"fmt"
	"sort"

	"teraphim/internal/protocol"
)

// boolean evaluates expr at every librarian and unions the result sets in
// global-document order.
func (e *exec) boolean(expr string) (*Result, error) {
	res := &Result{}
	res.Trace.Mode = ModeCN // Boolean evaluation is inherently central-nothing
	res.Trace.LibrariansAsked = len(e.fed.libs)
	replies, err := e.callParallel(&res.Trace, PhaseRank, e.fed.Librarians(), func(string) protocol.Message {
		return &protocol.BooleanQuery{Expr: expr}
	})
	if err != nil {
		return nil, err
	}
	for name, reply := range replies {
		br, ok := reply.(*protocol.BooleanReply)
		if !ok {
			return nil, fmt.Errorf("core: librarian %q answered BooleanQuery with %v", name, reply.Type())
		}
		li := e.fed.byName[name]
		for _, d := range br.Docs {
			res.Answers = append(res.Answers, Answer{
				Librarian: name,
				LocalDoc:  d,
				GlobalDoc: li.offset + d,
			})
		}
	}
	sort.Slice(res.Answers, func(i, j int) bool {
		return res.Answers[i].GlobalDoc < res.Answers[j].GlobalDoc
	})
	res.Trace.MergeCandidates = len(res.Answers)
	return res, nil
}
