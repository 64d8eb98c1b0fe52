package inet

import (
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in      string
		want    Addr
		wantErr bool
	}{
		{"192.20.225.20", AddrFrom4(192, 20, 225, 20), false},
		{"0.0.0.0", 0, false},
		{"255.255.255.255", Broadcast, false},
		{"10.0.0.1", 0x0a000001, false},
		{"256.0.0.1", 0, true},
		{"1.2.3", 0, true},
		{"1.2.3.4.5", 0, true},
		{"a.b.c.d", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseAddr(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseAddr on garbage did not panic")
		}
	}()
	MustParseAddr("not-an-address")
}

func TestEndpointRoundTrip(t *testing.T) {
	f := func(raw uint32, port uint16) bool {
		e := Endpoint{Addr: Addr(raw), Port: port}
		var back Endpoint
		return back.UnmarshalText([]byte(e.String())) == nil && back == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{"", "10.0.0.1", "10.0.0.1:", "10.0.0.1:65536", "10.0.1:80", ":80"} {
		if err := new(Endpoint).UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("UnmarshalText(%q) succeeded, want error", bad)
		}
	}
}

// Endpoints order by address, then port; Key order is that order.
func TestEndpointBefore(t *testing.T) {
	a := Endpoint{Addr: 1, Port: 9}
	b := Endpoint{Addr: 2, Port: 1}
	c := Endpoint{Addr: 2, Port: 2}
	if !(a.Key() < b.Key()) || !(b.Key() < c.Key()) || c.Key() < b.Key() || a.Key() < a.Key() {
		t.Error("Key order is not address-then-port order")
	}
}

func TestKeyIsEndpointInBeforeOrder(t *testing.T) {
	before := func(a, b Endpoint) bool { return a.Addr < b.Addr || a.Addr == b.Addr && a.Port < b.Port }
	layout := func(addr uint32, port uint16) bool {
		k := Endpoint{Addr: Addr(addr), Port: port}.Key()
		return k>>16 == Key(addr) && uint16(k) == port
	}
	// Random pairs almost never share an address; draw from a few so the
	// port decides often too.
	order := func(a1, a2 uint8, p1, p2 uint16) bool {
		a := Endpoint{Addr: Addr(a1 % 4), Port: p1}
		b := Endpoint{Addr: Addr(a2 % 4), Port: p2}
		return (a.Key() < b.Key()) == before(a, b)
	}
	wide := func(a1, a2 uint32, p1, p2 uint16) bool {
		a, b := Endpoint{Addr: Addr(a1), Port: p1}, Endpoint{Addr: Addr(a2), Port: p2}
		return (a.Key() < b.Key()) == before(a, b)
	}
	for _, f := range []any{layout, order, wide} {
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	}
}
