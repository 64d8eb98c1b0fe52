package tcp

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/netsim"
)

// TestWriteAllBeforeHandshake: a payload handed to WriteAll before the
// handshake completes stays out of the send buffer, and its first byte leaves
// only once the connection is ESTABLISHED — on the active opener (SYN-SENT)
// and on the passive one (SYN-RCVD).
func TestWriteAllBeforeHandshake(t *testing.T) {
	payload := pattern(10_000)
	for _, active := range []bool{true, false} {
		e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{})
		l, _ := e.server.Listen(0, 80)
		var srvSink *sink
		l.SetAcceptFunc(func(c *Conn) { srvSink = attachSink(c) })
		c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		if err != nil {
			t.Fatal(err)
		}
		cliSink := attachSink(c)
		sender, stack, want := c, e.client, StateSynSent
		if !active {
			e.sched.RunUntil(1500 * time.Microsecond) // the SYN is in, its ACK is not
			sender = e.server.FindConn(Endpoint{Addr: e.serverAddr, Port: 80}, c.Local())
			stack, want = e.server, StateSynRcvd
		}
		if sender == nil || sender.State() != want {
			t.Fatalf("active=%v: sender not in %v", active, want)
		}
		sender.WriteAll(payload, false)
		if n := sender.sndBuf.len(); n != 0 {
			t.Fatalf("active=%v: %d bytes written in %v", active, n, want)
		}
		early := 0
		stack.SetTrace(func(dir string, _, _ Endpoint, seg *Segment) {
			if dir == "out" && len(seg.Payload) > 0 && sender.State() != StateEstablished {
				early++
			}
		})
		e.sched.RunUntil(time.Minute)
		got := cliSink.data
		if active {
			got = srvSink.data
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("active=%v: peer read %d of %d bytes", active, len(got), len(payload))
		}
		if early != 0 {
			t.Fatalf("active=%v: %d data segments before ESTABLISHED", active, early)
		}
	}
}

// TestWriteAllDrainsAcrossWritableEvents: a payload larger than the send
// buffer fills it, waits in the outbox and follows as ACKs free space, every
// byte in order.
func TestWriteAllDrainsAcrossWritableEvents(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{SendBufSize: 4096})
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	e.sched.RunUntil(time.Second)
	payload := pattern(100_000)
	free := c.WriteFree()
	c.WriteAll(payload, false)
	if len(c.outbox) != len(payload)-free {
		t.Fatalf("outbox holds %d bytes after the first write, want %d", len(c.outbox), len(payload)-free)
	}
	e.sched.RunUntil(time.Minute)
	if srv == nil || !bytes.Equal(srv.data, payload) {
		t.Fatal("payload did not arrive whole and in order")
	}
	if len(c.outbox) != 0 || srv.eof {
		t.Fatalf("outbox %d bytes, peer EOF %v: want 0, false", len(c.outbox), srv.eof)
	}
}

// TestWriteAllClosesOnceAfterTheLastByte: with closeAfter the connection
// sends exactly one FIN, and it sits right after the payload's last byte —
// also when the payload is nil or empty and there is nothing to drain.
func TestWriteAllClosesOnceAfterTheLastByte(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, pattern(1000), pattern(50_000)} {
		e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{SendBufSize: 4096})
		l, _ := e.server.Listen(0, 80)
		var srv *sink
		l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
		c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		_, finSeqs := traceSends(e)
		c.WriteAll(payload, true)
		e.sched.RunUntil(time.Minute)
		if srv == nil || !bytes.Equal(srv.data, payload) || !srv.eof {
			t.Fatalf("%d-byte payload: peer did not read it all, then EOF", len(payload))
		}
		if want := c.iss.Add(1 + len(payload)); len(finSeqs) != 1 || !finSeqs[want] {
			t.Fatalf("%d-byte payload: FINs at %v, want one at %v", len(payload), finSeqs, want)
		}
		if c.closeAfter {
			t.Fatalf("%d-byte payload: close still pending", len(payload))
		}
	}
}

// TestCallbackReplacesOutbox: OnConnected or OnWritable after WriteAll takes
// the event over, as it would take over an earlier callback: what the outbox
// still held is never sent, and its close never happens.
func TestCallbackReplacesOutbox(t *testing.T) {
	payload := pattern(20_000)
	for _, later := range []string{"OnConnected", "OnWritable"} {
		e := newEnv(t, netsim.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond}, Config{SendBufSize: 4096})
		l, _ := e.server.Listen(0, 80)
		var srv *sink
		l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
		c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
		calls, sent := 0, 0
		if later == "OnWritable" {
			e.sched.RunUntil(time.Second)
			sent = c.WriteFree()
		}
		c.WriteAll(payload, true)
		if later == "OnWritable" {
			c.OnWritable(func() { calls++ })
		} else {
			c.OnConnected(func() { calls++ })
		}
		e.sched.RunUntil(time.Minute)
		if calls == 0 {
			t.Fatalf("%s: callback never ran", later)
		}
		if srv == nil || !bytes.Equal(srv.data, payload[:sent]) || srv.eof {
			t.Fatalf("%s: peer read %d bytes, EOF %v; want the %d written before, no EOF", later, len(srv.data), srv.eof, sent)
		}
	}
}
