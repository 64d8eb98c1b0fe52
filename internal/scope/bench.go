package scope

import (
	"encoding/json"
	"fmt"
	"os"
)

// BenchEntry mirrors one ttcpbench -json result row. Deterministic fields
// (throughput, events, frames) are reproducible across machines at equal
// seed; the wall-clock fields are machine-dependent and never gated on.
type BenchEntry struct {
	Case           string  `json:"case"`
	BufLen         int     `json:"buf_len"`
	ThroughputKBps float64 `json:"throughput_kbps"`
	Events         uint64  `json:"events"`
	Frames         uint64  `json:"frames"`
	WallMS         float64 `json:"wall_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
}

// BenchFile mirrors a ttcpbench -json output file (BENCH_core.json).
type BenchFile struct {
	Description string       `json:"description"`
	TotalBytes  int          `json:"total_bytes"`
	Seed        int64        `json:"seed"`
	Parallel    int          `json:"parallel"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	WallMS      float64      `json:"total_wall_ms"`
	Entries     []BenchEntry `json:"entries"`
}

// LoadBenchFile loads a ttcpbench JSON result.
func LoadBenchFile(path string) (*BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bf.Entries) == 0 {
		return nil, fmt.Errorf("%s: no bench entries", path)
	}
	return &bf, nil
}

// IsBenchFile sniffs whether path holds a ttcpbench JSON result (a single
// object with an entries array) rather than a series export.
func IsBenchFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false
	}
	return len(bf.Entries) > 0
}

// DiffBench compares two bench results on the deterministic fields only —
// throughput, scheduler events and fabric frames — within relative
// tolerance tol. Wall time, events/sec and allocs/event are machine
// facts, not simulation facts, and are ignored. Mismatched run parameters
// (total bytes, seed, parallelism) are findings: the comparison would be
// meaningless.
func DiffBench(a, b *BenchFile, tol float64) []Finding {
	var out []Finding
	if a.TotalBytes != b.TotalBytes || a.Seed != b.Seed || a.Parallel != b.Parallel {
		out = append(out, Finding{Series: "bench", Field: "params",
			Note: fmt.Sprintf("run parameters differ: bytes=%d/%d seed=%d/%d parallel=%d/%d",
				a.TotalBytes, b.TotalBytes, a.Seed, b.Seed, a.Parallel, b.Parallel)})
		return out
	}
	type key struct {
		c   string
		buf int
	}
	bEntries := make(map[key]BenchEntry, len(b.Entries))
	for _, e := range b.Entries {
		bEntries[key{e.Case, e.BufLen}] = e
	}
	seen := make(map[key]bool, len(a.Entries))
	for _, ea := range a.Entries {
		k := key{ea.Case, ea.BufLen}
		seen[k] = true
		label := fmt.Sprintf("%s/%d", ea.Case, ea.BufLen)
		eb, ok := bEntries[k]
		if !ok {
			out = append(out, Finding{Series: label, Field: "presence", Note: "only in run A"})
			continue
		}
		check := func(field string, av, bv float64) {
			if rel := relDiff(av, bv); rel > tol {
				out = append(out, Finding{Series: label, Field: field, A: av, B: bv, Rel: rel})
			}
		}
		check("throughput", ea.ThroughputKBps, eb.ThroughputKBps)
		check("events", float64(ea.Events), float64(eb.Events))
		check("frames", float64(ea.Frames), float64(eb.Frames))
	}
	for _, eb := range b.Entries {
		if k := (key{eb.Case, eb.BufLen}); !seen[k] {
			out = append(out, Finding{Series: fmt.Sprintf("%s/%d", eb.Case, eb.BufLen),
				Field: "presence", Note: "only in run B"})
		}
	}
	return out
}
