package determinism_test

import (
	"path/filepath"
	"testing"

	"hydranet/internal/lint/determinism"
	"hydranet/internal/lint/linttest"
)

func TestCoveredPackage(t *testing.T) {
	linttest.Run(t, determinism.Analyzer, filepath.Join(linttest.TestData(t), "src", "internal", "sim"))
}

func TestCoveredSeriesPackage(t *testing.T) {
	linttest.Run(t, determinism.Analyzer, filepath.Join(linttest.TestData(t), "src", "internal", "series"))
}

func TestUncoveredPackage(t *testing.T) {
	linttest.Run(t, determinism.Analyzer, filepath.Join(linttest.TestData(t), "src", "other"))
}
