package core

import (
	"testing"
	"testing/quick"
	"time"

	"hydranet/internal/inet"
	"hydranet/internal/ipv4"
	"hydranet/internal/sim"
	"hydranet/internal/tcp"
)

func TestChainMsgRoundTrip(t *testing.T) {
	f := func(svcAddr, clAddr uint32, svcPort, clPort uint16, snd, rcv uint32) bool {
		in := &ChainMsg{
			Service: ServiceID{Addr: ipv4.Addr(svcAddr), Port: svcPort},
			Client:  tcp.Endpoint{Addr: ipv4.Addr(clAddr), Port: clPort},
			SndNxt:  tcp.Seq(snd),
			RcvNxt:  tcp.Seq(rcv),
		}
		out, err := UnmarshalChainMsg(in.Marshal())
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChainMsgRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		make([]byte, 10),
		make([]byte, chainMsgLen),   // zero magic
		make([]byte, chainMsgLen+5), // wrong length
	}
	for i, b := range cases {
		if _, err := UnmarshalChainMsg(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Wrong version.
	m := ChainMsg{Service: ServiceID{Addr: 1, Port: 2}}
	b := m.Marshal()
	b[1] = 99
	if _, err := UnmarshalChainMsg(b); err == nil {
		t.Error("wrong version accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModePrimary.String() != "primary" || ModeBackup.String() != "backup" {
		t.Error("Mode.String wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode renders empty")
	}
}

func TestDetectorParamsDefaults(t *testing.T) {
	p := DetectorParams{}.withDefaults()
	if p.RetransmitThreshold != 4 {
		t.Errorf("default threshold = %d, want 4", p.RetransmitThreshold)
	}
	if suspectCooldown != 2*time.Second {
		t.Errorf("cooldown = %v, want 2s", suspectCooldown)
	}
	// Explicit values survive.
	p = DetectorParams{RetransmitThreshold: 2}.withDefaults()
	if p.RetransmitThreshold != 2 {
		t.Error("explicit threshold overridden")
	}
}

func TestServiceIDString(t *testing.T) {
	svc := ServiceID{Addr: inet.MustParseAddr("192.20.225.20"), Port: 80}
	if got := svc.String(); got != "192.20.225.20:80" {
		t.Errorf("String = %q", got)
	}
}

// TestConnTableInline: a port's first two records have their rows in it, so
// entering two connections and closing them allocates only what the records
// come in: a fresh manager's slab arrays of one and of two records.
func TestConnTableInline(t *testing.T) {
	m := Manager{sched: sim.NewScheduler(1)}
	m.ports = m.ports0[:0]
	allocs := testing.AllocsPerRun(10, func() {
		m.port0, m.ports, m.records = ReplicatedPort{}, m.ports[:0], inet.Slab[ftConn]{}
		p := m.SetPortOpt(ServiceID{Addr: 1, Port: 80}, ModeBackup, DetectorParams{})
		a, b := p.newFTConn(2), p.newFTConn(1)
		a.OnClosed(nil)
		b.OnClosed(nil)
	})
	if allocs != 2 {
		t.Errorf("two connections entered and closed allocate %v objects, want 2 (their slab arrays)", allocs)
	}
}
