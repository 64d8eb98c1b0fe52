package capture

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPcapGoldenHeader pins the exact on-disk bytes of the global header and
// one record header, so a regression in the writer is caught without any
// external tooling: this IS the format Wireshark parses.
func TestPcapGoldenHeader(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	golden := []byte{
		0x4d, 0x3c, 0xb2, 0xa1, // magic 0xa1b23c4d, little-endian (nanosecond)
		0x02, 0x00, 0x04, 0x00, // version 2.4
		0x00, 0x00, 0x00, 0x00, // thiszone
		0x00, 0x00, 0x00, 0x00, // sigfigs
		0xff, 0xff, 0x00, 0x00, // snaplen 65535
		0x65, 0x00, 0x00, 0x00, // linktype 101 = LINKTYPE_RAW
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("global header:\n got %x\nwant %x", buf.Bytes(), golden)
	}

	payload := []byte{0x45, 0x00, 0x00, 0x04}
	if err := w.WritePacket(1500*time.Millisecond, payload); err != nil {
		t.Fatal(err)
	}
	rec := buf.Bytes()[fileHeaderLen:]
	goldenRec := []byte{
		0x01, 0x00, 0x00, 0x00, // ts_sec = 1
		0x00, 0x65, 0xcd, 0x1d, // ts_nsec = 500_000_000
		0x04, 0x00, 0x00, 0x00, // incl_len = 4
		0x04, 0x00, 0x00, 0x00, // orig_len = 4
	}
	if !bytes.Equal(rec[:recordHeaderLen], goldenRec) {
		t.Fatalf("record header:\n got %x\nwant %x", rec[:recordHeaderLen], goldenRec)
	}
	if !bytes.Equal(rec[recordHeaderLen:], payload) {
		t.Fatalf("record data = %x, want %x", rec[recordHeaderLen:], payload)
	}
}

func TestPcapWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	type pkt struct {
		ts   time.Duration
		data []byte
	}
	pkts := []pkt{
		{0, []byte{0x45}},
		{123456789 * time.Nanosecond, bytes.Repeat([]byte{0xab}, 1500)},
		{2*time.Second + 1, []byte{1, 2, 3}},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p.ts, p.data); err != nil {
			t.Fatal(err)
		}
	}
	if w.Packets() != uint64(len(pkts)) || w.Err() != nil {
		t.Fatalf("writer counters: packets=%d err=%v", w.Packets(), w.Err())
	}

	f, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if f.LinkType != LinkTypeRaw || f.SnapLen != snapLen {
		t.Fatalf("file header parsed as %+v", f)
	}
	if len(f.Records) != len(pkts) {
		t.Fatalf("read %d records, want %d", len(f.Records), len(pkts))
	}
	for i, r := range f.Records {
		if r.Ts != pkts[i].ts {
			t.Errorf("record %d ts = %v, want %v", i, r.Ts, pkts[i].ts)
		}
		if r.OrigLen != len(pkts[i].data) || !bytes.Equal(r.Data, pkts[i].data) {
			t.Errorf("record %d data mismatch (orig %d, got %d bytes)",
				i, r.OrigLen, len(r.Data))
		}
	}
}

func TestPcapReaderRejectsGarbage(t *testing.T) {
	bad := make([]byte, fileHeaderLen)
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: err = %v", err)
	}

	// Right magic, wrong version.
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()
	hdr[4] = 3 // version major
	if _, err := ReadAll(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: err = %v", err)
	}

	// The classic microsecond magic: no writer here emits it.
	hdr[4] = 2
	binary.LittleEndian.PutUint32(hdr[0:4], 0xa1b2c3d4)
	if _, err := ReadAll(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("microsecond magic: err = %v", err)
	}

	// A record claiming more bytes than the file's own snaplen allows.
	buf.Reset()
	w, _ := NewWriter(&buf)
	if err := w.WritePacket(0, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[16:20], 64)
	raw[fileHeaderLen+8] = 0xff // incl_len low byte -> 255 > snaplen 64
	if _, err := ReadAll(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "snaplen") {
		t.Fatalf("oversized incl_len: err = %v", err)
	}

	// A nanosecond field of a whole second or more.
	binary.LittleEndian.PutUint32(raw[16:20], 65535)
	binary.LittleEndian.PutUint32(raw[fileHeaderLen+4:], 1_000_000_000)
	raw[fileHeaderLen+8] = 32
	if _, err := ReadAll(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "ts_nsec") {
		t.Fatalf("ts_nsec of one second: err = %v", err)
	}
}

// hugeRecord is a 40-byte pcap whose header claims a 4 GiB snaplen and
// whose one record header claims 0x7FFFFFF0 bytes of data it does not have.
func hugeRecord() []byte {
	var buf bytes.Buffer
	NewWriter(&buf)
	raw := append(buf.Bytes(), make([]byte, recordHeaderLen)...)
	binary.LittleEndian.PutUint32(raw[16:20], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(raw[fileHeaderLen+8:], 0x7FFFFFF0)
	return raw
}

// TestPcapReaderBoundsBeforeAllocating: a record is checked against the
// IPv4 maximum, not only the file's own snaplen, before its buffer is
// allocated, so a tiny hostile file cannot make ReadAll allocate 2 GiB.
func TestPcapReaderBoundsBeforeAllocating(t *testing.T) {
	raw := hugeRecord()
	if len(raw) != 40 {
		t.Fatalf("hostile file is %d bytes, want 40", len(raw))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadAll(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "snaplen") {
		t.Fatalf("oversized incl_len: err = %v", err)
	}
	n := after.TotalAlloc - before.TotalAlloc
	if n >= 64<<10 {
		t.Fatalf("ReadAll allocated %d bytes before rejecting the record, want < 64 KiB", n)
	}
	t.Logf("ReadAll allocated %d bytes before rejecting the record", n)
}

// FuzzReadAll feeds ReadAll arbitrary bytes. It must never panic or keep
// a record above the snaplen, and whatever it accepts must survive a
// Writer round trip: same timestamps, same bytes.
func FuzzReadAll(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.WritePacket(1500*time.Millisecond, []byte{0x45, 0, 0, 4})
	w.WritePacket(2*time.Second, bytes.Repeat([]byte{0xab}, 40))
	f.Add(buf.Bytes())
	f.Add(hugeRecord())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		file, err := ReadAll(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w, _ := NewWriter(&out)
		for _, r := range file.Records {
			if len(r.Data) > snapLen {
				t.Fatalf("accepted a %d-byte record", len(r.Data))
			}
			w.WritePacket(r.Ts, r.Data)
		}
		again, err := ReadAll(&out)
		if err != nil {
			t.Fatalf("rereading the rewritten records: %v", err)
		}
		if len(again.Records) != len(file.Records) {
			t.Fatalf("rewrite holds %d records, want %d", len(again.Records), len(file.Records))
		}
		for i, r := range again.Records {
			if r.Ts != file.Records[i].Ts || !bytes.Equal(r.Data, file.Records[i].Data) {
				t.Fatalf("record %d changed in the round trip", i)
			}
		}
	})
}

// errAfter fails every write past the first n.
type errAfter struct {
	n int
}

func (e *errAfter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, bytes.ErrTooLarge
	}
	e.n--
	return len(p), nil
}

func TestPcapWriterStickyError(t *testing.T) {
	w, err := NewWriter(&errAfter{n: 2}) // header + one record header succeed
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(0, []byte{1}); err == nil {
		t.Fatal("write into failing sink succeeded")
	}
	first := w.Err()
	if err := w.WritePacket(0, []byte{2}); err != first {
		t.Fatalf("second write error %v, want sticky %v", err, first)
	}
	if w.Packets() != 0 {
		t.Fatalf("failed writes counted: %d", w.Packets())
	}
}
