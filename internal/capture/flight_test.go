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
	f := NewFlightRecorder(clock)

	// Six frames more than the ring holds: only the last ringFrames survive,
	// oldest first.
	for i := 0; i < ringFrames+6; i++ {
		*now = time.Duration(i+1) * time.Millisecond
		f.RecordFrame("a", "b", []byte{byte(i >> 8), byte(i)})
	}
	var buf bytes.Buffer
	if err := f.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pf, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.Records) != ringFrames {
		t.Fatalf("held %d frames, want %d", len(pf.Records), ringFrames)
	}
	for i, r := range pf.Records {
		wantIdx := 6 + i // frames 6.. survive
		if got := int(r.Data[0])<<8 | int(r.Data[1]); got != wantIdx || r.Ts != time.Duration(wantIdx+1)*time.Millisecond {
			t.Errorf("record %d = frame %d at %v, want frame %d at %v",
				i, got, r.Ts, wantIdx, time.Duration(wantIdx+1)*time.Millisecond)
		}
	}

	// Same story for the event ring.
	for i := 0; i < ringEvents+6; i++ {
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
	if h.FramesSeen != ringFrames+6 || h.FramesHeld != ringFrames || h.EventsSeen != ringEvents+6 || h.EventsHeld != ringEvents {
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
	f := NewFlightRecorder(clock)
	data := make([]byte, 200)
	for i := 0; i < ringFrames; i++ {
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
	f := NewFlightRecorder(clock)
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
	if f.Err() != nil {
		t.Fatalf("Err = %v after a good dump", f.Err())
	}

	// A failed dump sticks, and a later good one does not clear it: the
	// hooks' dumps have no caller to return their error to.
	if err := f.Dump(filepath.Join(t.TempDir(), "no-such-dir", "flight")); err == nil {
		t.Fatal("dump into a missing directory succeeded")
	}
	if err := f.Dump(prefix); err != nil {
		t.Fatal(err)
	}
	if f.Err() == nil {
		t.Fatal("Err = nil after a failed dump")
	}
}

// TestFlightRecorderAttachBus: bus events land in the emitting host's ring.
func TestFlightRecorderAttachBus(t *testing.T) {
	now, clock := fakeClock()
	f := NewFlightRecorder(clock)
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
// in a test binary, scribbles) immediately afterwards.
func TestRecordFrameCopiesBeforeFrameRecycle(t *testing.T) {
	now, clock := fakeClock()
	f := NewFlightRecorder(clock)
	pool := frame.NewPool()

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
