package sweep

import (
	"runtime"
	"testing"
)

func TestMapOrder(t *testing.T) {
	got := Map(4, 100, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapSerialEqualsParallel(t *testing.T) {
	f := func(i int) int { return i*7 + 3 }
	serial := Map(1, 50, f)
	parallel := Map(runtime.GOMAXPROCS(0), 50, f)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	if got := Map(0, 3, func(i int) int { return i }); len(got) != 3 {
		t.Fatalf("workers=0 returned %d results", len(got))
	}
	if got := Map(16, 2, func(i int) int { return i }); len(got) != 2 || got[1] != 1 {
		t.Fatalf("workers>n returned %v", got)
	}
}
