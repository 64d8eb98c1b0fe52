package testbed

import "testing"

// TestFigure4OrderingRobustToCalibration: the headline qualitative result —
// the ordering of the four curves — must survive large changes to the
// machine-speed constants. Only then is it evidence about the protocol
// rather than about the calibration.
func TestFigure4OrderingRobustToCalibration(t *testing.T) {
	for _, scale := range []float64{0.5, 2.0} {
		run := func(c Case) float64 {
			res, _ := RunMeasured(Config{Case: c, BufLen: 1024, TotalBytes: 128 * 1024,
				Seed: 1, CPUScale: scale})
			if res.Err != nil {
				t.Fatalf("scale %.1f %v: %v", scale, c, res.Err)
			}
			return res.ThroughputKBps()
		}
		clean := run(CaseClean)
		noRedir := run(CaseNoRedirection)
		primary := run(CasePrimaryOnly)
		ft := run(CasePrimaryBackup)
		if !(clean >= noRedir*0.99 && noRedir > primary && primary > ft) {
			t.Errorf("scale %.1f: ordering broken: clean=%.0f noRedir=%.0f primary=%.0f ft=%.0f",
				scale, clean, noRedir, primary, ft)
		}
		if ft < clean*0.2 {
			t.Errorf("scale %.1f: FT mode collapsed (%.0f vs clean %.0f)", scale, ft, clean)
		}
	}
}
