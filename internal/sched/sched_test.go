package sched

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMain raises GOMAXPROCS so the multi-worker paths run even on
// single-core machines.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		marks := make([]atomic.Int32, n)
		ParallelFor(n, 3, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				marks[i].Add(1)
			}
		})
		for i := range marks {
			if got := marks[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, got)
			}
		}
	}
}

func TestParallelForDefaultGrain(t *testing.T) {
	var sum atomic.Int64
	ParallelFor(1000, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	})
	if got := sum.Load(); got != 999*1000/2 {
		t.Fatalf("sum = %d", got)
	}
}

// TestRunRounds checks both the results and the round count: a task chain of
// length k must take exactly k rounds regardless of how many chains run.
func TestRunRounds(t *testing.T) {
	type task struct{ remaining int }
	var processed atomic.Int64
	initial := make([]task, 50)
	for i := range initial {
		initial[i] = task{remaining: i % 7}
	}
	rounds := RunRounds(initial, func(tk task, emit func(task)) {
		processed.Add(1)
		if tk.remaining > 0 {
			emit(task{tk.remaining - 1})
		}
	})
	if rounds != 7 { // longest chain: remaining=6 -> 7 steps
		t.Fatalf("rounds = %d, want 7", rounds)
	}
	// Total tasks processed: sum over i of (i%7 + 1).
	want := int64(0)
	for i := 0; i < 50; i++ {
		want += int64(i%7 + 1)
	}
	if got := processed.Load(); got != want {
		t.Fatalf("processed %d, want %d", got, want)
	}
	if r := RunRounds(nil, func(tk task, emit func(task)) {}); r != 0 {
		t.Fatalf("empty frontier: rounds = %d", r)
	}
}

// TestRunRoundsFanout checks that a task may emit several successors.
func TestRunRoundsFanout(t *testing.T) {
	type task struct{ depth int }
	var leaves atomic.Int64
	rounds := RunRounds([]task{{0}}, func(tk task, emit func(task)) {
		if tk.depth == 4 {
			leaves.Add(1)
			return
		}
		emit(task{tk.depth + 1})
		emit(task{tk.depth + 1})
	})
	if rounds != 5 {
		t.Fatalf("rounds = %d, want 5", rounds)
	}
	if got := leaves.Load(); got != 16 {
		t.Fatalf("leaves = %d, want 16", got)
	}
}

func BenchmarkParallelFor(b *testing.B) {
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelFor(len(data), 1024, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] = float64(j) * 1.5
			}
		})
	}
}
