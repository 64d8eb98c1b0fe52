package main

import (
	"bytes"
	"strings"
	"testing"
)

// The committed seeded-violation testdata doubles as the exit-code
// fixture: a package that must produce findings (exit 2), a shipped
// package that must be clean (exit 0), and a nonexistent pattern that
// must fail the load (exit 1).
const (
	seededPkg = "../../internal/lint/determinism/testdata/src/internal/sim"
	cleanPkg  = "../../internal/frame"
)

func TestExitCodeFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{seededPkg}, &stdout, &stderr); got != 2 {
		t.Fatalf("seeded violations: exit %d, want 2\nstdout: %s\nstderr: %s", got, stdout.String(), stderr.String())
	}
	if stdout.Len() == 0 {
		t.Fatal("exit 2 with no diagnostics printed")
	}
}

func TestExitCodeClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{cleanPkg}, &stdout, &stderr); got != 0 {
		t.Fatalf("clean package: exit %d, want 0\nstdout: %s\nstderr: %s", got, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean package printed diagnostics:\n%s", stdout.String())
	}
}

func TestExitCodeLoadFailure(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"./no-such-package"}, &stdout, &stderr); got != 1 {
		t.Fatalf("broken target: exit %d, want 1\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "hydralint:") {
		t.Fatalf("load failure did not explain itself on stderr: %q", stderr.String())
	}
}

// TestTimingFlag keeps -time wired: one wall-time line for the analyzer
// on stderr, none on stdout.
func TestTimingFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-time", cleanPkg}, &stdout, &stderr); got != 0 {
		t.Fatalf("clean package with -time: exit %d, want 0\nstderr: %s", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "hydralint: determinism") {
		t.Errorf("-time output missing the analyzer's line:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("-time leaked onto stdout:\n%s", stdout.String())
	}
}
