// Package capture gives the simulation packet-grade observability: a pcap
// writer fed by netsim frame taps (so Wireshark/tcpdump can inspect the
// IP-in-IP tunneling and the ft-TCP handshake offline) and a tiny in-repo
// pcap reader for golden checks.
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
// callback and never retains the fabric's slice.
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
	// timestamps (0xa1b23c4d), the only one written or read. The virtual
	// clock is a time.Duration, so nanosecond records are exact.
	MagicNanos = 0xa1b23c4d

	// LinkTypeRaw is LINKTYPE_RAW: packets begin directly with an IPv4 (or
	// IPv6) header. netsim frames are raw IPv4, so this is the only link
	// type the simulator emits.
	LinkTypeRaw = 101

	// snapLen is the header's per-record capture length and the largest
	// record the reader accepts: the IPv4 maximum, so no frame is ever cut.
	snapLen = 65535

	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// Writer emits a pcap stream: one 24-byte global header followed by
// 16-byte-header records. All integers are little-endian (the de-facto
// standard byte order; the magic tells readers which was used). Writing is
// allocation-free per record — the header is marshalled into a scratch
// array owned by the Writer — so a capture can sit on the fabric fast path.
type Writer struct {
	w       io.Writer
	packets uint64
	err     error
	hdr     [recordHeaderLen]byte
}

// NewWriter writes the pcap global header (nanosecond magic, version 2.4,
// snaplen 65535, LINKTYPE_RAW) and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var h [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], MagicNanos)
	binary.LittleEndian.PutUint16(h[4:6], 2) // version major
	binary.LittleEndian.PutUint16(h[6:8], 4) // version minor
	// h[8:16]: thiszone + sigfigs, both zero.
	binary.LittleEndian.PutUint32(h[16:20], snapLen)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeRaw)
	if _, err := w.Write(h[:]); err != nil {
		return nil, fmt.Errorf("capture: writing pcap header: %w", err)
	}
	return &Writer{w: w}, nil
}

// WritePacket appends one record timestamped at virtual time ts. data is an
// IPv4 packet, so it fits the snaplen whole; it is fully consumed before
// return and the caller keeps ownership. After the first write error the
// Writer is dead and every call returns that error.
func (w *Writer) WritePacket(ts time.Duration, data []byte) error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(ts/time.Second))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(ts%time.Second))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(len(data)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		w.err = fmt.Errorf("capture: writing record header: %w", err)
		return w.err
	}
	if _, err := w.w.Write(data); err != nil {
		w.err = fmt.Errorf("capture: writing record data: %w", err)
		return w.err
	}
	w.packets++
	return nil
}

// Packets returns how many records were written.
func (w *Writer) Packets() uint64 { return w.packets }

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
	Records  []Record
}

// ReadAll parses the little-endian, nanosecond pcap stream Writer emits.
// It is the in-repo golden checker: CI parses emitted captures with it
// instead of external tooling. A record longer than the file's snaplen or
// than 65 535 bytes is an error, raised before its buffer is allocated.
func ReadAll(r io.Reader) (*File, error) {
	var h [fileHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("capture: reading pcap header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(h[0:4]); magic != MagicNanos {
		return nil, fmt.Errorf("capture: bad pcap magic %#08x", magic)
	}
	if major, minor := binary.LittleEndian.Uint16(h[4:6]), binary.LittleEndian.Uint16(h[6:8]); major != 2 || minor != 4 {
		return nil, fmt.Errorf("capture: unsupported pcap version %d.%d", major, minor)
	}
	f := &File{
		SnapLen:  int(binary.LittleEndian.Uint32(h[16:20])),
		LinkType: binary.LittleEndian.Uint32(h[20:24]),
	}
	limit := min(f.SnapLen, snapLen)
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
		if int(incl) > limit {
			return nil, fmt.Errorf("capture: record %d incl_len %d exceeds snaplen %d", len(f.Records), incl, limit)
		}
		if frac >= uint32(time.Second) {
			return nil, fmt.Errorf("capture: record %d ts_nsec %d is not below one second", len(f.Records), frac)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("capture: reading record %d data: %w", len(f.Records), err)
		}
		ts := time.Duration(sec)*time.Second + time.Duration(frac)
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
