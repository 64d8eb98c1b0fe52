package tcp

import (
	"bytes"
	"testing"
	"time"

	"hydranet/internal/netsim"
)

func TestTransferOverReorderingLink(t *testing.T) {
	// Heavy jitter reorders segments; the reassembly queue must restore
	// the stream exactly, and spurious fast retransmits must not corrupt
	// anything.
	e := newEnv(t, netsim.LinkConfig{
		Rate: 10_000_000, Delay: time.Millisecond, Jitter: 8 * time.Millisecond,
	}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	payload := pattern(300_000)
	c, err := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	c.WriteAll(payload, true)
	e.sched.RunUntil(10 * time.Minute)
	if srv == nil || !bytes.Equal(srv.data, payload) {
		got := 0
		if srv != nil {
			got = len(srv.data)
		}
		t.Fatalf("reordered transfer: %d of %d bytes", got, len(payload))
	}
}

func TestReorderingPlusLoss(t *testing.T) {
	e := newEnv(t, netsim.LinkConfig{
		Rate: 10_000_000, Delay: 2 * time.Millisecond,
		Jitter: 6 * time.Millisecond, Loss: 0.03,
	}, Config{})
	l, _ := e.server.Listen(0, 80)
	var srv *sink
	l.SetAcceptFunc(func(c *Conn) { srv = attachSink(c) })
	payload := pattern(200_000)
	c, _ := e.client.Connect(0, Endpoint{Addr: e.serverAddr, Port: 80})
	c.WriteAll(payload, true)
	e.sched.RunUntil(15 * time.Minute)
	if srv == nil || !bytes.Equal(srv.data, payload) {
		got := 0
		if srv != nil {
			got = len(srv.data)
		}
		t.Fatalf("jitter+loss transfer: %d of %d bytes", got, len(payload))
	}
}
