package inet

// Slab hands out zeroed records of type T one at a time from arrays it
// allocates whole, the way a kernel takes protocol control blocks from slab
// zones. The first array holds one record and each next one twice as many, up
// to slabMax, so an owner's first record costs one object and a steady stream
// of them one object per slabMax records.
//
// A record is never handed out twice: there is no free list, and an array goes
// back only when the collector finds all of it unreachable. So a pointer kept
// past the record's use — a closed connection the application still holds, a
// stopped timer's wake-up — still names that record and no other. The zero
// Slab is ready to use; it belongs to one owner and is not safe for concurrent
// use.
type Slab[T any] struct {
	free []T // what is left of the last array
	n    int // the last array's length
}

// slabMax caps an array's length: 16 connection records (about 1 KiB each)
// stay below the runtime's 32 KiB large-object size.
const slabMax = 16

// New returns a pointer to a zeroed T that no other call of s returns.
func (s *Slab[T]) New() *T {
	if len(s.free) == 0 {
		s.n = min(max(2*s.n, 1), slabMax)
		s.free = make([]T, s.n)
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
}
