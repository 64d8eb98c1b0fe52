package prof

import (
	"fmt"
	"io"
	"time"
)

// Report renders the human-readable profile: run summary and the causal
// critical path with the speedup bound it implies. This is what
// `hydrascope profile` prints.
func Report(w io.Writer, p *Profile) error {
	bw := &errWriter{w: w}
	bw.printf("hydraprof profile")
	if p.Scenario != "" {
		bw.printf(": %s", p.Scenario)
	}
	bw.printf("\n")
	bw.printf("  seed %d\n", p.Seed)
	bw.printf("  virtual %-12v wall %-12v events %d\n",
		time.Duration(p.VirtualNs), time.Duration(p.WallNs), p.Events)
	if p.WallNs > 0 {
		bw.printf("  throughput %.0f events/sec (wall)\n",
			float64(p.Events)/(float64(p.WallNs)/1e9))
	}

	cp := &p.CriticalPath
	bw.printf("\ncritical path\n")
	bw.printf("  depth %d of %d events  (deepest at %v)\n",
		cp.Depth, p.Events, time.Duration(cp.DeepestAtNs))
	bw.printf("  ideal speedup   %6.2fx  (events / critical-path depth)\n", p.IdealSpeedup())
	if cp.EdgesSeen > 0 {
		bw.printf("  edge samples    %d of %d (every %d)\n",
			cp.EdgesRecorded, cp.EdgesSeen, cp.SampleEvery)
	}
	return bw.err
}

// errWriter folds fmt errors so Report reads linearly.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
