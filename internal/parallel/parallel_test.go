package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		Run(n, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	called := false
	Run(0, 4, func(int) { called = true })
	Run(-5, 4, func(int) { called = true })
	if called {
		t.Error("fn called for empty range")
	}
}

func TestRunInlineSingleWorker(t *testing.T) {
	// workers <= 1 must run on the calling goroutine, in order.
	var order []int
	Run(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order = %v", order)
		}
	}
}
