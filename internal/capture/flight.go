package capture

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"time"

	"hydranet/internal/frame"
	"hydranet/internal/invariant"
	"hydranet/internal/netsim"
	"hydranet/internal/obs"
)

// FlightRecorder keeps the recent past in bounded per-host rings: the last
// ringFrames frames each host transmitted and the last ringEvents obs
// events each host emitted. It records continuously at near-zero cost and
// is dumped — to a pcap plus a JSON event log — only when something
// interesting happens: a FailoverProbe fires, or a test fails.
//
// Steady-state recording is allocation-free: frame slots are byte buffers
// sized with frame.ClassSize (the pool's own growth policy), so after one
// warm-up lap of the ring every copy lands in an existing slot; obs events
// are stored by value in a preallocated ring. Only first contact with a
// new host allocates its rings.
type FlightRecorder struct {
	now   func() time.Duration
	hosts map[string]*hostRing
	order []string
	seq   uint64 // global frame arrival counter, for stable dump order
	dumps int
	err   error // the first failed dump's error
}

type frameRec struct {
	at   time.Duration
	seq  uint64
	to   string
	data []byte // slot buffer; first n bytes valid
	n    int
}

type hostRing struct {
	frames []frameRec
	fpos   int
	fseen  uint64
	events []obs.Event
	epos   int
	eseen  uint64
}

// ringFrames and ringEvents bound each host's rings. 256 frames
// comfortably covers a detection window at Figure-4 rates while keeping a
// 10-host dump under ~4 MB.
const (
	ringFrames = 256
	ringEvents = 256
)

// NewFlightRecorder returns a recorder stamping frames with the given
// virtual clock.
func NewFlightRecorder(now func() time.Duration) *FlightRecorder {
	return &FlightRecorder{now: now, hosts: make(map[string]*hostRing)}
}

func (f *FlightRecorder) ring(host string) *hostRing {
	r := f.hosts[host]
	if r == nil {
		r = &hostRing{
			frames: make([]frameRec, ringFrames),
			events: make([]obs.Event, ringEvents),
		}
		f.hosts[host] = r
		f.order = append(f.order, host)
	}
	return r
}

// RecordFrame copies data into the sending host's frame ring. The copy
// happens synchronously — data may alias a pooled fabric buffer.
func (f *FlightRecorder) RecordFrame(from, to string, data []byte) {
	r := f.ring(from)
	slot := &r.frames[r.fpos]
	if cap(slot.data) < len(data) {
		slot.data = make([]byte, frame.ClassSize(len(data)))
	}
	slot.n = copy(slot.data[:cap(slot.data)], data)
	slot.at = f.now()
	slot.to = to
	f.seq++
	slot.seq = f.seq
	r.fpos++
	if r.fpos == len(r.frames) {
		r.fpos = 0
	}
	r.fseen++
}

// RecordEvent stores e in its emitting host's event ring (events without a
// node land in the "(net)" ring).
func (f *FlightRecorder) RecordEvent(e obs.Event) {
	host := e.Node
	if host == "" {
		host = "(net)"
	}
	r := f.ring(host)
	r.events[r.epos] = e
	r.epos++
	if r.epos == len(r.events) {
		r.epos = 0
	}
	r.eseen++
}

// Tap returns a netsim.FrameTap feeding the recorder.
func (f *FlightRecorder) Tap() netsim.FrameTap {
	return func(from, to *netsim.Node, data []byte) {
		f.RecordFrame(from.Name(), to.Name(), data)
	}
}

// AttachBus subscribes the recorder's event ring to the given kinds (all
// kinds when none given).
func (f *FlightRecorder) AttachBus(b *obs.Bus, kinds ...obs.Kind) {
	b.Subscribe(f.RecordEvent, kinds...)
}

// Dumps returns how many times Dump ran (directly or via a hook).
func (f *FlightRecorder) Dumps() int { return f.dumps }

// Err returns the first error any dump returned, if any — including the
// dumps the fail-over and violation hooks make, which have no caller to
// return it to.
func (f *FlightRecorder) Err() error { return f.err }

// heldFrames returns every live frame record sorted by (time, arrival seq).
func (f *FlightRecorder) heldFrames() []*frameRec {
	var out []*frameRec
	for _, host := range f.order {
		r := f.hosts[host]
		for i := range r.frames {
			if r.frames[i].seq != 0 {
				out = append(out, &r.frames[i])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// WritePcap writes the held frames, oldest first, as a pcap stream.
func (f *FlightRecorder) WritePcap(w io.Writer) error {
	pw, err := NewWriter(w, 0)
	if err != nil {
		return err
	}
	for _, fr := range f.heldFrames() {
		if err := pw.WritePacket(fr.at, fr.data[:fr.n]); err != nil {
			return err
		}
	}
	return nil
}

// flightHostJSON is one host's section of the JSON dump.
type flightHostJSON struct {
	Host        string      `json:"host"`
	FramesSeen  uint64      `json:"frames_seen"`
	FramesHeld  int         `json:"frames_held"`
	EventsSeen  uint64      `json:"events_seen"`
	EventsHeld  int         `json:"events_held"`
	OldestFrame string      `json:"oldest_frame,omitempty"`
	Events      []obs.Event `json:"events,omitempty"`
}

type flightJSON struct {
	DumpedAt time.Duration    `json:"dumped_at"`
	Hosts    []flightHostJSON `json:"hosts"`
}

// WriteJSON writes the per-host event rings (oldest first) plus ring
// occupancy counters as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	out := flightJSON{DumpedAt: f.now()}
	for _, host := range f.order {
		r := f.hosts[host]
		h := flightHostJSON{Host: host, FramesSeen: r.fseen, EventsSeen: r.eseen}
		var oldest time.Duration = -1
		for i := range r.frames {
			if r.frames[i].seq != 0 {
				h.FramesHeld++
				if oldest < 0 || r.frames[i].at < oldest {
					oldest = r.frames[i].at
				}
			}
		}
		if oldest >= 0 {
			h.OldestFrame = oldest.String()
		}
		// Ring order: epos points at the oldest slot once the ring wrapped.
		for i := 0; i < len(r.events); i++ {
			e := r.events[(r.epos+i)%len(r.events)]
			if e.Kind == 0 && e.Time == 0 && e.Node == "" && e.Detail == "" && e.Size == 0 {
				continue // never-written slot
			}
			h.Events = append(h.Events, e)
		}
		h.EventsHeld = len(h.Events)
		out.Hosts = append(out.Hosts, h)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Dump writes prefix.pcap and prefix.json. A failure also sticks: see Err.
func (f *FlightRecorder) Dump(prefix string) error {
	f.dumps++
	err := f.dump(prefix)
	if f.err == nil {
		f.err = err
	}
	return err
}

func (f *FlightRecorder) dump(prefix string) error {
	pf, err := os.Create(prefix + ".pcap")
	if err != nil {
		return err
	}
	if err := f.WritePcap(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	jf, err := os.Create(prefix + ".json")
	if err != nil {
		return err
	}
	if err := f.WriteJSON(jf); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

// DumpOnFailover hooks the probe so the rings are dumped the instant a
// failover (crash → promotion) is observed. A failed dump surfaces in Err.
func (f *FlightRecorder) DumpOnFailover(p *obs.FailoverProbe, prefix string) {
	p.OnFailover(func(obs.FailoverReport) { f.Dump(prefix) })
}

// DumpOnViolation hooks the invariant monitor so the rings are dumped the
// instant the first violation is recorded — the forensic bundle's pcap
// window, preserved while the offending frames are still in the rings.
// Only the first violation dumps: a sick run can violate on every segment,
// and the first instant is the one the surrounding window still covers. A
// failed dump surfaces in Err.
func (f *FlightRecorder) DumpOnViolation(m *invariant.Monitor, prefix string) {
	fired := false
	m.OnViolation(func(invariant.Violation) {
		if !fired {
			fired = true
			f.Dump(prefix)
		}
	})
}
