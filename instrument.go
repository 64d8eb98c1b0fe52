package hydranet

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hydranet/internal/capture"
	"hydranet/internal/obs"
)

// Instruments names the observers of one run and the files their artifacts
// go to. The zero value attaches nothing: no bus subscriber, no frame tap,
// no scheduler event — an uninstrumented run fires exactly the events it
// would without this file.
type Instruments struct {
	// Scenario labels the audit report.
	Scenario string
	// Pcap captures every fabric frame, plus the pre-encapsulation inner
	// packet of every redirector tunnel copy, to this pcap file.
	Pcap string
	// Invariants attaches the online protocol-invariant monitor; Audit
	// additionally writes its report as JSON to this file.
	Invariants bool
	Audit      string
	// Failover attaches the fail-over probe, for Summary.Failover.
	Failover bool
}

// Suffixed returns in with tag inserted before the extension of every
// artifact path (run.pcap → run-t3.pcap, x.audit.json → x-t3.audit.json, a
// stem without extension run → run-t3), so the runs of a sweep write
// distinct files. Empty paths stay empty.
func (in Instruments) Suffixed(tag string) Instruments {
	for _, p := range []*string{&in.Pcap, &in.Audit} {
		if *p == "" {
			continue
		}
		dir, base := filepath.Split(*p)
		i := strings.IndexByte(base, '.')
		if i <= 0 { // no extension, or a dot-file
			i = len(base)
		}
		*p = dir + base[:i] + tag + base[i:]
	}
	return in
}

// Session is the set of observers Instrument attached to one Net.
type Session struct {
	net *Net
	in  Instruments

	mon      *Monitor
	pcapFile *os.File
	pcapBuf  *bufio.Writer // the capture writes here; Finish flushes it into pcapFile
	capt     *capture.Capture
	probe    *obs.FailoverProbe
	finished bool
}

// Summary is what Finish reports about a run's observers.
type Summary struct {
	// Failover is the probe's Table-2 report (zero without a probe or a
	// crash).
	Failover FailoverReport
	// Audit is the monitor's verdict, nil unless the run was monitored.
	Audit *AuditReport
	// PcapRecords counts capture records, PcapInner the pre-encap inner
	// copies among them.
	PcapRecords, PcapInner uint64
}

// Instrument attaches the observers in selects, once per Net, after the
// topology is final (taps cover the links and redirectors that exist now)
// and before DeployFT (the monitor rebuilds replica-set membership from the
// registration events, and every artifact starts at registration). It owns
// the attach order — monitor, capture, fail-over probe — so a caller cannot
// get it wrong: a second call, or one after DeployFT, is an error and
// attaches nothing, and so is a pcap file that cannot be set up: every step
// that can fail runs before the first observer attaches. No observer
// schedules an event. Flush with Session.Finish after the run's last RunFor.
func (n *Net) Instrument(in Instruments) (*Session, error) {
	switch {
	case n.session != nil:
		return nil, errors.New("hydranet: Instrument called twice on one Net")
	case n.deployed:
		return nil, errors.New("hydranet: Instrument called after DeployFT; attach observers first")
	}
	s := &Session{net: n, in: in}
	if in.Pcap != "" {
		f, err := os.Create(in.Pcap)
		if err != nil {
			return nil, fmt.Errorf("hydranet: pcap: %w", err)
		}
		// One write(2) per 64 KiB of records instead of two per record.
		s.pcapFile, s.pcapBuf = f, bufio.NewWriterSize(f, 64<<10)
		if s.capt, err = capture.New(s.pcapBuf, n.Now); err != nil {
			f.Close()
			return nil, fmt.Errorf("hydranet: pcap: %w", err)
		}
	}
	n.session = s

	if in.Invariants || in.Audit != "" {
		s.mon = n.StartMonitor(MonitorConfig{Scenario: in.Scenario})
	}
	if s.capt != nil {
		// Every frame accepted on every link, both directions, and the
		// inner packet of every tunnel copy of the redirectors present
		// now. The capture is the only tap of either kind.
		n.fab.SetFrameTap(s.capt.FrameTap())
		for _, r := range n.redirectors {
			r.rd.SetEncapTap(s.capt.CaptureInner)
		}
	}
	if in.Failover {
		s.probe = n.newFailoverProbe()
	}
	return s, nil
}

// Finish flushes every artifact: it flushes and closes the pcap and
// surfaces the capture's sticky write error, and runs the monitor's
// end-of-run conservation check (decided only when the simulation is
// quiescent) before writing the audit. Every step runs even if an earlier
// one failed; the errors come back joined.
func (s *Session) Finish() (Summary, error) {
	if s.finished {
		return Summary{}, errors.New("hydranet: Session.Finish called twice")
	}
	s.finished = true
	var sum Summary
	var errs []error
	fail := func(what string, err error) {
		if err != nil {
			errs = append(errs, fmt.Errorf("hydranet: %s: %w", what, err))
		}
	}
	if s.probe != nil {
		sum.Failover = s.probe.Report()
	}
	if s.capt != nil {
		sum.PcapRecords, sum.PcapInner = s.capt.Packets(), s.capt.InnerPackets()
		fail("pcap", errors.Join(s.capt.Err(), s.pcapBuf.Flush(), s.pcapFile.Close()))
	}
	if s.mon != nil {
		audit := s.net.FinishAudit(s.mon)
		sum.Audit = &audit
		if s.in.Audit != "" {
			fail("audit", audit.WriteJSON(s.in.Audit))
		}
	}
	return sum, errors.Join(errs...)
}
