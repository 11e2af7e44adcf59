package stripe

import (
	"sync"
	"testing"
)

func TestCounterSumsEveryCell(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("Load = %d, want 8000", got)
	}
}

// One call site on one goroutine lands on one cell every time.
func TestIndexInRangeAndSticky(t *testing.T) {
	var got [4]int
	for i := range got {
		got[i] = Index()
	}
	for _, i := range got {
		if i < 0 || i >= Cells || i != got[0] {
			t.Fatalf("Index from one call site = %v, want one value in [0, %d)", got, Cells)
		}
	}
}
