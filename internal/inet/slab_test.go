package inet

import "testing"

// TestSlabArraysDouble: records come in arrays of 1, 2, 4, 8 and then 16,
// each zeroed and handed out once.
func TestSlabArraysDouble(t *testing.T) {
	type record struct{ used bool }
	var s Slab[record]
	seen := make(map[*record]bool)
	for _, size := range []int{1, 2, 4, 8, 16, 16} {
		for range size {
			r := s.New()
			if seen[r] || r.used {
				t.Fatalf("record %p handed out twice", r)
			}
			seen[r], r.used = true, true
			if s.n != size {
				t.Fatalf("record %d came from an array of %d, want %d", len(seen), s.n, size)
			}
		}
	}
}
