package hydranet

import "hydranet/internal/series"

// Accessors for the external tests (package hydranet_test, which can import
// internal/testbed) to state the API does not export.

// HealthScorer is the replica health scorer of s's sampler.
func HealthScorer(s *Session) *series.HealthScorer { return s.tel.scorer }

// ClosePcap closes s's capture file under it: every later write fails.
func ClosePcap(s *Session) error { return s.pcapFile.Close() }
