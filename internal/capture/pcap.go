// Package capture gives the simulation packet-grade observability: a pcap
// writer fed by netsim frame taps (so Wireshark/tcpdump can inspect the
// IP-in-IP tunneling and the ft-TCP handshake offline), a tiny in-repo pcap
// reader for golden checks, and a bounded per-host flight recorder that
// keeps the last frames and obs events in fixed rings.
//
// Frames in the simulator are raw IPv4 packets — there is no link-layer
// framing — so captures use LINKTYPE_RAW (101). Timestamps come from the
// virtual clock: a run that starts at t=0 produces packets timestamped from
// the epoch, which is exactly what makes two captures of the same seed
// byte-identical.
//
// Pooled-frame rule: every tap callback receives bytes that alias a
// frame.Buf owned by the fabric and valid only for the duration of the
// call. The pcap writer serializes the record synchronously inside the
// callback; the flight recorder copies into its own ring slot. Neither ever
// retains the fabric's slice.
package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"
)

const (
	// MagicNanos is the pcap global-header magic for nanosecond-resolution
	// timestamps (0xa1b23c4d). The virtual clock is a time.Duration, so
	// nanosecond records are exact.
	MagicNanos = 0xa1b23c4d
	// MagicMicros is the classic microsecond-resolution magic (0xa1b2c3d4),
	// accepted by the reader for completeness.
	MagicMicros = 0xa1b2c3d4

	// LinkTypeRaw is LINKTYPE_RAW: packets begin directly with an IPv4 (or
	// IPv6) header. netsim frames are raw IPv4, so this is the only link
	// type the simulator emits.
	LinkTypeRaw = 101

	// DefaultSnapLen is the default per-record capture length. It exceeds
	// every MTU the fabric allows, so records are never truncated unless a
	// caller asks for a smaller snaplen.
	DefaultSnapLen = 65535

	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// Writer emits a pcap stream: one 24-byte global header followed by
// 16-byte-header records. All integers are little-endian (the de-facto
// standard byte order; the magic tells readers which was used). Writing is
// allocation-free per record — the header is marshalled into a scratch
// array owned by the Writer — so a capture can sit on the fabric fast path.
type Writer struct {
	w         io.Writer
	snaplen   int
	packets   uint64
	truncated uint64
	err       error
	hdr       [recordHeaderLen]byte
}

// NewWriter writes the pcap global header (nanosecond magic, version 2.4,
// LINKTYPE_RAW) and returns a Writer. snaplen <= 0 selects DefaultSnapLen.
func NewWriter(w io.Writer, snaplen int) (*Writer, error) {
	if snaplen <= 0 {
		snaplen = DefaultSnapLen
	}
	var h [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], MagicNanos)
	binary.LittleEndian.PutUint16(h[4:6], 2) // version major
	binary.LittleEndian.PutUint16(h[6:8], 4) // version minor
	// h[8:16]: thiszone + sigfigs, both zero.
	binary.LittleEndian.PutUint32(h[16:20], uint32(snaplen))
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeRaw)
	if _, err := w.Write(h[:]); err != nil {
		return nil, fmt.Errorf("capture: writing pcap header: %w", err)
	}
	return &Writer{w: w, snaplen: snaplen}, nil
}

// WritePacket appends one record timestamped at virtual time ts. data is
// fully consumed before return; the caller keeps ownership. After the first
// write error the Writer is dead and every call returns that error.
func (w *Writer) WritePacket(ts time.Duration, data []byte) error {
	if w.err != nil {
		return w.err
	}
	incl := len(data)
	if incl > w.snaplen {
		incl = w.snaplen
		w.truncated++
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(ts/time.Second))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(ts%time.Second))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(incl))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		w.err = fmt.Errorf("capture: writing record header: %w", err)
		return w.err
	}
	if _, err := w.w.Write(data[:incl]); err != nil {
		w.err = fmt.Errorf("capture: writing record data: %w", err)
		return w.err
	}
	w.packets++
	return nil
}

// Packets returns how many records were written.
func (w *Writer) Packets() uint64 { return w.packets }

// Truncated returns how many records were cut to snaplen.
func (w *Writer) Truncated() uint64 { return w.truncated }

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }

// Record is one packet read back from a pcap stream.
type Record struct {
	// Ts is the record timestamp, reconstructed as a virtual-clock offset.
	Ts time.Duration
	// OrigLen is the original wire length; len(Data) may be smaller if the
	// capture snaplen truncated the record.
	OrigLen int
	// Data is the captured bytes (an independent copy).
	Data []byte
}

// File is a fully parsed pcap stream.
type File struct {
	SnapLen  int
	LinkType uint32
	Nanos    bool // nanosecond-resolution timestamps
	Records  []Record
}

// ReadAll parses a little-endian pcap stream (either timestamp magic).
// It is the in-repo golden checker: CI parses emitted captures with it
// instead of external tooling.
func ReadAll(r io.Reader) (*File, error) {
	var h [fileHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("capture: reading pcap header: %w", err)
	}
	f := &File{}
	switch magic := binary.LittleEndian.Uint32(h[0:4]); magic {
	case MagicNanos:
		f.Nanos = true
	case MagicMicros:
		f.Nanos = false
	default:
		return nil, fmt.Errorf("capture: bad pcap magic %#08x", magic)
	}
	if major, minor := binary.LittleEndian.Uint16(h[4:6]), binary.LittleEndian.Uint16(h[6:8]); major != 2 || minor != 4 {
		return nil, fmt.Errorf("capture: unsupported pcap version %d.%d", major, minor)
	}
	f.SnapLen = int(binary.LittleEndian.Uint32(h[16:20]))
	f.LinkType = binary.LittleEndian.Uint32(h[20:24])
	for {
		var rh [recordHeaderLen]byte
		if _, err := io.ReadFull(r, rh[:]); err == io.EOF {
			return f, nil
		} else if err != nil {
			return nil, fmt.Errorf("capture: reading record %d header: %w", len(f.Records), err)
		}
		sec := binary.LittleEndian.Uint32(rh[0:4])
		frac := binary.LittleEndian.Uint32(rh[4:8])
		incl := binary.LittleEndian.Uint32(rh[8:12])
		orig := binary.LittleEndian.Uint32(rh[12:16])
		if int(incl) > f.SnapLen {
			return nil, fmt.Errorf("capture: record %d incl_len %d exceeds snaplen %d", len(f.Records), incl, f.SnapLen)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("capture: reading record %d data: %w", len(f.Records), err)
		}
		ts := time.Duration(sec) * time.Second
		if f.Nanos {
			ts += time.Duration(frac)
		} else {
			ts += time.Duration(frac) * time.Microsecond
		}
		f.Records = append(f.Records, Record{Ts: ts, OrigLen: int(orig), Data: data})
	}
}

// ReadFile parses a pcap file from disk.
func ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAll(f)
}
