package icmp_test

import (
	"testing"
	"time"

	"hydranet"
	"hydranet/internal/icmp"
	"hydranet/internal/ipv4"
)

// FuzzDeliverIP: arbitrary bytes delivered as an ICMP payload never panic the
// stack. A checksummed Unreachable or TimeExceeded reaches the OnError hook
// exactly once, with the quoted header iff the quote parses, and nothing else
// reaches it; the client's outstanding ping completes exactly once whatever
// the message says. With fix set the checksum is rewritten first, so the
// fuzzer gets past it to the quote parser.
func FuzzDeliverIP(f *testing.F) {
	echo := (&icmp.Message{Type: icmp.TypeEchoRequest, ID: 1, Seq: 1, Payload: []byte("hydranet ping")}).Marshal()
	quote := func(n int) []byte { // the echo's IP header and its first n bytes
		b, err := (&ipv4.Packet{Header: ipv4.Header{TTL: 1, Proto: icmp.Protocol}, Payload: echo[:n]}).Marshal()
		if err != nil {
			f.Fatal(err)
		}
		return (&icmp.Message{Type: icmp.TypeTimeExceeded, Payload: b}).Marshal()
	}
	f.Add(echo, false)
	f.Add(quote(icmp.HeaderLen), false) // names the outstanding ping (ID 1, Seq 1)
	f.Add(quote(4), false)              // too short to name any echo
	f.Fuzz(func(t *testing.T, msg []byte, fix bool) {
		msg = append([]byte(nil), msg...)
		if fix && len(msg) >= icmp.HeaderLen {
			msg[2], msg[3] = 0, 0
			sum := ipv4.Checksum(msg)
			msg[2], msg[3] = byte(sum>>8), byte(sum)
		}
		net := hydranet.New(hydranet.Config{Seed: 1})
		client := net.AddHost("client", hydranet.HostConfig{})
		server := net.AddHost("server", hydranet.HostConfig{})
		net.Link(client, server, hydranet.LinkConfig{Rate: 10_000_000, Delay: time.Millisecond})
		net.AutoRoute()
		done := 0
		client.Ping(server.Addr(), time.Second, func(icmp.EchoResult) { done++ })

		hooked := 0
		client.ICMP().OnError(func(m *icmp.Message, inner *ipv4.Header) {
			hooked++
			want, err := ipv4.Unmarshal(m.Payload)
			if (inner == nil) != (err != nil) || inner != nil && *inner != want.Header {
				t.Fatalf("quote % x: hook got header %+v, parser says %v", m.Payload, inner, err)
			}
		})
		client.ICMP().DeliverIP(&ipv4.Packet{
			Header:  ipv4.Header{TTL: 64, Proto: icmp.Protocol, Src: server.Addr(), Dst: client.Addr()},
			Payload: msg,
		})
		parsed, err := icmp.Unmarshal(msg)
		isError := err == nil && (parsed.Type == icmp.TypeUnreachable || parsed.Type == icmp.TypeTimeExceeded)
		if isError && hooked != 1 || !isError && hooked != 0 {
			t.Fatalf("message % x reached the error hook %d times", msg, hooked)
		}
		net.RunFor(2 * time.Second)
		if done != 1 {
			t.Fatalf("message % x: the outstanding ping completed %d times, want 1", msg, done)
		}
	})
}
