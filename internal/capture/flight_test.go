package capture

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/inet"
	"hydranet/internal/obs"
)

// fakeClock returns a settable virtual clock.
func fakeClock() (*time.Duration, func() time.Duration) {
	now := new(time.Duration)
	return now, func() time.Duration { return *now }
}

func TestFlightRecorderRingWraps(t *testing.T) {
	now, clock := fakeClock()
	f := NewFlightRecorder(clock, 4, 4)

	// 10 frames through a 4-slot ring: only the last 4 survive, oldest first.
	for i := 0; i < 10; i++ {
		*now = time.Duration(i+1) * time.Millisecond
		f.RecordFrame("a", "b", []byte{byte(i), 0x45})
	}
	var buf bytes.Buffer
	if err := f.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pf, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Records) != 4 {
		t.Fatalf("held %d frames, want 4", len(pf.Records))
	}
	for i, r := range pf.Records {
		wantIdx := 6 + i // frames 6..9 survive
		if r.Data[0] != byte(wantIdx) || r.Ts != time.Duration(wantIdx+1)*time.Millisecond {
			t.Errorf("record %d = frame %d at %v, want frame %d at %v",
				i, r.Data[0], r.Ts, wantIdx, time.Duration(wantIdx+1)*time.Millisecond)
		}
	}

	// Same story for the event ring.
	for i := 0; i < 10; i++ {
		*now = time.Duration(i+1) * time.Millisecond
		f.RecordEvent(obs.Event{Kind: obs.KindRetransmit, Time: *now, Node: "a", Seq: uint64(i)})
	}
	var jbuf bytes.Buffer
	if err := f.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Hosts []struct {
			Host       string `json:"host"`
			FramesSeen uint64 `json:"frames_seen"`
			FramesHeld int    `json:"frames_held"`
			EventsSeen uint64 `json:"events_seen"`
			EventsHeld int    `json:"events_held"`
			Events     []struct {
				Seq uint64 `json:"seq"`
			} `json:"events"`
		} `json:"hosts"`
	}
	if err := json.Unmarshal(jbuf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Hosts) != 1 || dump.Hosts[0].Host != "a" {
		t.Fatalf("hosts = %+v", dump.Hosts)
	}
	h := dump.Hosts[0]
	if h.FramesSeen != 10 || h.FramesHeld != 4 || h.EventsSeen != 10 || h.EventsHeld != 4 {
		t.Fatalf("ring occupancy = %+v", h)
	}
	for i, e := range h.Events {
		if want := uint64(6 + i); e.Seq != want {
			t.Errorf("event %d seq = %d, want %d (oldest first)", i, e.Seq, want)
		}
	}
}

// TestFlightRecorderSteadyStateAllocFree: after one warm-up lap of the ring,
// recording a same-class frame reuses its slot buffer.
func TestFlightRecorderSteadyStateAllocFree(t *testing.T) {
	_, clock := fakeClock()
	f := NewFlightRecorder(clock, 8, 8)
	data := make([]byte, 200)
	for i := 0; i < 8; i++ {
		f.RecordFrame("a", "b", data)
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.RecordFrame("a", "b", data)
		f.RecordEvent(obs.Event{Kind: obs.KindRetransmit, Node: "a"})
	})
	if allocs != 0 {
		t.Fatalf("steady-state record allocates %v per run, want 0", allocs)
	}
}

func TestFlightRecorderDumpFiles(t *testing.T) {
	now, clock := fakeClock()
	f := NewFlightRecorder(clock, 0, 0) // defaults
	*now = time.Millisecond
	f.RecordFrame("rd", "s0", []byte{0x45, 0x00})
	f.RecordEvent(obs.Event{Kind: obs.KindPromotion, Time: *now, Node: "s1", Service: inet.Endpoint{Addr: inet.AddrFrom4(10, 0, 0, 9), Port: 80}})

	prefix := filepath.Join(t.TempDir(), "flight")
	if err := f.Dump(prefix); err != nil {
		t.Fatal(err)
	}
	if f.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", f.Dumps())
	}
	pf, err := ReadFile(prefix + ".pcap")
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Records) != 1 || pf.Records[0].Ts != time.Millisecond {
		t.Fatalf("dumped pcap records = %+v", pf.Records)
	}
	var dump map[string]any
	raw, err := os.ReadFile(prefix + ".json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dumped JSON invalid: %v", err)
	}
	if _, ok := dump["hosts"]; !ok {
		t.Fatalf("dump JSON missing hosts section: %v", dump)
	}
}

// TestFlightRecorderAttachBus: bus events land in the emitting host's ring.
func TestFlightRecorderAttachBus(t *testing.T) {
	now, clock := fakeClock()
	f := NewFlightRecorder(clock, 4, 4)
	b := obs.NewBus(clock)
	f.AttachBus(b, obs.KindSuspicion)

	*now = 3 * time.Millisecond
	b.Publish(obs.Event{Kind: obs.KindSuspicion, Node: "s1"})
	b.Publish(obs.Event{Kind: obs.KindPromotion, Node: "s1"}) // not subscribed

	var jbuf bytes.Buffer
	if err := f.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Hosts []struct {
			Host       string `json:"host"`
			EventsSeen uint64 `json:"events_seen"`
		} `json:"hosts"`
	}
	if err := json.Unmarshal(jbuf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Hosts) != 1 || dump.Hosts[0].Host != "s1" || dump.Hosts[0].EventsSeen != 1 {
		t.Fatalf("bus-fed rings = %+v", dump.Hosts)
	}
}

// TestRecordFrameCopiesBeforeFrameRecycle locks in that the flight
// recorder copies frame bytes synchronously during RecordFrame: the tap
// hands it a slice aliasing a pooled frame that the fabric recycles (and,
// in poison mode, scribbles) immediately afterwards.
func TestRecordFrameCopiesBeforeFrameRecycle(t *testing.T) {
	now, clock := fakeClock()
	f := NewFlightRecorder(clock, 4, 4)
	pool := frame.NewPool()
	pool.SetPoison(true)

	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	*now = time.Millisecond
	fb := pool.Get(len(want))
	copy(fb.Bytes(), want)
	f.RecordFrame("a", "b", fb.Bytes())
	fb.Release() // the fabric recycles the frame right after the tap runs

	var buf bytes.Buffer
	if err := f.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pf, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Records) != 1 {
		t.Fatalf("held %d frames, want 1", len(pf.Records))
	}
	if !bytes.Equal(pf.Records[0].Data, want) {
		t.Fatalf("recorded %x, want %x: flight recorder retained a slice of a recycled frame", pf.Records[0].Data, want)
	}
}
