package main

import (
	"encoding/binary"
	"fmt"

	"scalerpc/internal/host"
	"scalerpc/internal/rpccore"
	"scalerpc/internal/sim"
)

// echoCost is the simulated application work of the echo handler.
const echoCost = 400 * sim.Nanosecond

// checkHead is how many leading payload bytes each echo must return
// unchanged: the loadgen key (bytes 0..8) and, in traced runs, the request
// tag (bytes 8..16).
const checkHead = 16

// echoState is shared by one run's echo handler and every checkedConn: the
// counters the rpc.* per-layer metrics come from, the first output error,
// and, in traced runs, the open spans of every tagged request.
type echoState struct {
	traced bool

	sendAttempts, sendAccepted uint64
	polls, emptyPolls          uint64
	delivered                  uint64

	err error

	// Traced runs only: handler entry/exit per tag, and finished spans.
	handlerIn, handlerOut map[uint64]sim.Time
	spans                 []span
}

func newEchoState(traced bool) *echoState {
	s := &echoState{traced: traced}
	if traced {
		s.handlerIn = make(map[uint64]sim.Time)
		s.handlerOut = make(map[uint64]sim.Time)
	}
	return s
}

func (s *echoState) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf(format, args...)
	}
}

// handle is the echo handler every server registers: it charges echoCost
// and returns the request bytes unchanged.
func (s *echoState) handle(t *host.Thread, _ uint16, req, out []byte) int {
	if s.traced && len(req) >= checkHead {
		s.handlerIn[binary.LittleEndian.Uint64(req[8:])] = t.P.Now()
	}
	t.Work(echoCost)
	n := copy(out, req)
	if s.traced && len(req) >= checkHead {
		s.handlerOut[binary.LittleEndian.Uint64(req[8:])] = t.P.Now()
	}
	return n
}

// sentReq is what checkedConn remembers about one accepted request.
type sentReq struct {
	n    int
	head [checkHead]byte
	at   sim.Time
	tag  uint64
}

// checkedConn wraps a transport connection. It counts send attempts and
// polls, verifies that each response echoes the length and leading bytes
// of the request it answers, and in traced runs stamps a tag into the
// request and records the request's spans.
type checkedConn struct {
	inner rpccore.Conn
	id    uint32
	s     *echoState
	sent  map[uint64]sentReq
	buf   []byte
}

func newCheckedConn(inner rpccore.Conn, id int, s *echoState) *checkedConn {
	return &checkedConn{inner: inner, id: uint32(id), s: s, sent: make(map[uint64]sentReq)}
}

func (c *checkedConn) TrySend(t *host.Thread, handler uint8, payload []byte, reqID uint64) bool {
	c.s.sendAttempts++
	var tag uint64
	if c.s.traced && len(payload) >= checkHead {
		c.buf = append(c.buf[:0], payload...)
		tag = uint64(c.id)<<32 | reqID&0xffffffff
		binary.LittleEndian.PutUint64(c.buf[8:], tag)
		payload = c.buf
	}
	if !c.inner.TrySend(t, handler, payload, reqID) {
		return false
	}
	c.s.sendAccepted++
	r := sentReq{n: len(payload), at: t.P.Now(), tag: tag}
	copy(r.head[:], payload)
	c.sent[reqID] = r
	return true
}

func (c *checkedConn) Poll(t *host.Thread, fn func(rpccore.Response)) int {
	c.s.polls++
	n := c.inner.Poll(t, func(resp rpccore.Response) {
		c.check(t.P.Now(), resp)
		fn(resp)
	})
	if n == 0 {
		c.s.emptyPolls++
	}
	return n
}

// check verifies one delivered response against the request it answers.
func (c *checkedConn) check(now sim.Time, resp rpccore.Response) {
	r, ok := c.sent[resp.ReqID]
	if !ok {
		c.s.fail("conn %d: response for unknown request %d", c.id, resp.ReqID)
		return
	}
	delete(c.sent, resp.ReqID)
	if resp.Err {
		return // counted as an error by the load generator
	}
	c.s.delivered++
	if len(resp.Payload) != r.n {
		c.s.fail("conn %d req %d: echo has %d bytes, request had %d", c.id, resp.ReqID, len(resp.Payload), r.n)
		return
	}
	h := min(r.n, checkHead)
	if string(resp.Payload[:h]) != string(r.head[:h]) {
		c.s.fail("conn %d req %d: echo bytes %x differ from request %x", c.id, resp.ReqID, resp.Payload[:h], r.head[:h])
		return
	}
	if c.s.traced && r.n >= checkHead {
		in, okIn := c.s.handlerIn[r.tag]
		out, okOut := c.s.handlerOut[r.tag]
		if !okIn || !okOut {
			c.s.fail("conn %d req %d: response without a handler span", c.id, resp.ReqID)
			return
		}
		delete(c.s.handlerIn, r.tag)
		delete(c.s.handlerOut, r.tag)
		c.s.spans = append(c.s.spans,
			span{name: "rpc.request", id: r.tag, start: r.at, end: now},
			span{name: "rpc.req_leg", id: r.tag, start: r.at, end: in},
			span{name: "rpc.handler", id: r.tag, start: in, end: out},
			span{name: "rpc.resp_leg", id: r.tag, start: out, end: now})
	}
}

func (c *checkedConn) Outstanding() int { return c.inner.Outstanding() }
func (c *checkedConn) SlotCount() int   { return c.inner.SlotCount() }
