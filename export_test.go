package hydranet

// Accessors for the external tests (package hydranet_test, which can import
// internal/testbed) to state the API does not export.

// ClosePcap closes s's capture file under it: every later write fails.
func ClosePcap(s *Session) error { return s.pcapFile.Close() }
