package scope

import (
	"encoding/json"
	"fmt"
	"os"

	"hydranet/internal/prof"
)

// hydraprof profile diffing. Profiles mix two kinds of fields (see
// internal/prof): deterministic facts of the scenario — event counts,
// critical-path depth, virtual times — which gate at the tolerance tol, and
// wall time, which is a machine fact and never gated.

// LoadProfFile loads a hydraprof profile. A profile written under another
// schema version is refused with an error naming that version.
func LoadProfFile(path string) (*prof.Profile, error) {
	return prof.LoadFile(path)
}

// IsProfFile sniffs whether path holds a hydraprof profile (an object with
// a prof_version field, of any version) rather than a bench file or series
// export.
func IsProfFile(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var probe struct {
		ProfVersion int `json:"prof_version"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return false
	}
	return probe.ProfVersion > 0
}

// DiffProf compares two profiles on their deterministic fields at relative
// tolerance tol. A differing seed is a finding: the comparison would be
// meaningless.
func DiffProf(a, b *prof.Profile, tol float64) []Finding {
	if a.Seed != b.Seed {
		return []Finding{{Series: "profile", Field: "params",
			Note: fmt.Sprintf("run parameters differ: seed=%d/%d", a.Seed, b.Seed)}}
	}
	var out []Finding
	check := func(field string, av, bv float64) {
		if rel := relDiff(av, bv); rel > tol {
			out = append(out, Finding{Series: "profile", Field: field, A: av, B: bv, Rel: rel})
		}
	}
	check("events", float64(a.Events), float64(b.Events))
	check("virtual_ns", float64(a.VirtualNs), float64(b.VirtualNs))
	check("cp_depth", float64(a.CriticalPath.Depth), float64(b.CriticalPath.Depth))
	return out
}
