// Package app provides small event-driven applications over the simulated
// TCP socket API: echo and sink servers, data sources, a minimal HTTP-like
// request/response server, and a stream feeder. They handle backpressure
// correctly (no byte is dropped when the send buffer fills), which matters
// doubly under HydraNet-FT: every replica runs the same application, and
// the byte streams they produce must be identical.
package app

import (
	"hydranet/internal/tcp"
)

// echoRead is an Echo's read size, and echoBacklog its backlog's first
// capacity. In the benchmark's failover_sweep (248 echoes a repetition, seeds
// 1 and 2) the most an echo ever holds unsent is 16 KiB at the median, 47 KiB
// at the 99th percentile and 95 KiB at most, so 64 KiB is the smallest power
// of two above the 99th percentile. At seed 1 that is 43 growing appends and
// 21 MB of arrays a repetition, against 2 352 and 37 MB for a backlog that
// starts empty.
const (
	echoRead    = 4096
	echoBacklog = 64 << 10
)

// Echo returns everything it receives and closes when the peer closes.
func Echo(c *tcp.Conn) {
	e := &echo{c: c}
	e.backlog = e.backlog0[:0]
	c.OnReadable(e.readable)
	c.OnWritable(e.flush)
}

// echo is one Echo call's state, its read buffer and its backlog's first
// array included: one allocation. What has been read but not yet written
// back is backlog[head:]. The backlog keeps one backing array: rewound
// whenever it drains, and when it is full slid to the front if that frees at
// least as much as it copies — else append grows it — so the array settles
// within a small factor of the largest backlog the connection ever had, at
// no more than one copied byte per byte echoed.
type echo struct {
	c        *tcp.Conn
	backlog  []byte
	head     int
	peerDone bool
	buf      [echoRead]byte
	backlog0 [echoBacklog]byte
}

func (e *echo) readable() {
	for {
		n := e.c.Read(e.buf[:])
		if n == 0 {
			break
		}
		if len(e.backlog)+n > cap(e.backlog) && e.head >= len(e.backlog)-e.head {
			e.backlog = e.backlog[:copy(e.backlog, e.backlog[e.head:])]
			e.head = 0
		}
		e.backlog = append(e.backlog, e.buf[:n]...)
	}
	if e.c.PeerClosed() {
		e.peerDone = true
	}
	e.flush()
}

func (e *echo) flush() {
	for e.head < len(e.backlog) {
		n := e.c.Write(e.backlog[e.head:])
		if n == 0 {
			return
		}
		e.head += n
	}
	e.backlog, e.head = e.backlog[:0], 0
	if e.peerDone {
		e.c.Close()
	}
}

// Collect accumulates all received bytes into out.
func Collect(c *tcp.Conn, out *[]byte) {
	buf := make([]byte, 8192)
	c.OnReadable(func() {
		for {
			n := c.Read(buf)
			if n == 0 {
				break
			}
			*out = append(*out, buf[:n]...)
		}
	})
}

// Source writes payload to the connection as buffer space allows and, if
// closeWhenDone, closes afterwards. Call before or after the connection
// establishes. It is tcp.Conn.WriteAll: the connection keeps the progress, so
// the call allocates nothing, and a later OnConnected or OnWritable replaces
// it.
func Source(c *tcp.Conn, payload []byte, closeWhenDone bool) { c.WriteAll(payload, closeWhenDone) }
