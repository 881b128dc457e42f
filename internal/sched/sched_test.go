package sched

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"parhull/internal/leakcheck"
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

// TestRunRounds checks both the results and the round count of the
// executor's round loop: a task chain of length k must take exactly k
// rounds regardless of how many chains run, every round's width is the
// number of chains still running, and an empty frontier runs no round.
func TestRunRounds(t *testing.T) {
	leakcheck.Check(t)
	type task struct{ remaining int }
	var processed atomic.Int64
	var x *Executor[task]
	x = NewExecutor(4, func(w int, tk task) {
		processed.Add(1)
		if tk.remaining > 0 {
			x.Fork(w, task{tk.remaining - 1})
		}
	})
	defer x.Close()
	initial := make([]task, 50)
	for i := range initial {
		initial[i] = task{remaining: i % 7}
	}
	var begun []int
	widths := x.Rounds(initial, func(r int) bool {
		begun = append(begun, r)
		return true
	})
	if len(widths) != 7 { // longest chain: remaining=6 -> 7 steps
		t.Fatalf("rounds = %d, want 7", len(widths))
	}
	// Total tasks processed: sum over i of (i%7 + 1); round r runs the
	// chains with at least r-1 steps left.
	want := int64(0)
	for i := 0; i < 50; i++ {
		want += int64(i%7 + 1)
	}
	if got := processed.Load(); got != want {
		t.Fatalf("processed %d, want %d", got, want)
	}
	for r, w := range widths {
		live := 0
		for i := 0; i < 50; i++ {
			if i%7 >= r {
				live++
			}
		}
		if w != live || begun[r] != r+1 {
			t.Fatalf("round %d: width %d (want %d), begun as %d", r+1, w, live, begun[r])
		}
	}
	x.Restart()
	if widths := x.Rounds(nil, func(int) bool { return true }); len(widths) != 0 {
		t.Fatalf("empty frontier: rounds = %d", len(widths))
	}
}

// TestRunRoundsFanout checks that a task may ready several successors.
func TestRunRoundsFanout(t *testing.T) {
	leakcheck.Check(t)
	type task struct{ depth int }
	var leaves atomic.Int64
	var x *Executor[task]
	x = NewExecutor(3, func(w int, tk task) {
		if tk.depth == 4 {
			leaves.Add(1)
			return
		}
		x.Fork(w, task{tk.depth + 1})
		x.Fork(w, task{tk.depth + 1})
	})
	defer x.Close()
	widths := x.Rounds([]task{{0}}, func(int) bool { return true })
	if fmt.Sprint(widths) != "[1 2 4 8 16]" {
		t.Fatalf("widths = %v, want [1 2 4 8 16]", widths)
	}
	if got := leaves.Load(); got != 16 {
		t.Fatalf("leaves = %d, want 16", got)
	}
}

// TestRoundsBeginStops checks that begin ends the loop before the round it
// refuses, that the pool comes back quiesced with the readied tasks
// dropped, and that the next cycle — fork-join or rounds — runs on the
// same workers as if the stopped run had not readied them.
func TestRoundsBeginStops(t *testing.T) {
	leakcheck.Check(t)
	var ran atomic.Int64
	var x *Executor[int]
	x = NewExecutor(2, func(w, task int) {
		ran.Add(1)
		if task > 0 {
			x.Fork(w, task-1)
		}
	})
	defer x.Close()
	widths := x.Rounds([]int{9, 9, 9}, func(r int) bool { return r <= 3 })
	if len(widths) != 3 || ran.Load() != 9 {
		t.Fatalf("stopped at round 3: widths %v, %d tasks ran", widths, ran.Load())
	}
	x.Restart()
	ran.Store(0)
	x.Fork(External, 2) // a fork-join cycle: the chain runs to its end
	x.Quiesce()
	if ran.Load() != 3 {
		t.Fatalf("fork-join cycle after a stopped Rounds ran %d tasks, want 3", ran.Load())
	}
	x.Restart()
	ran.Store(0)
	if widths := x.Rounds([]int{1}, func(int) bool { return true }); fmt.Sprint(widths) != "[1 1]" || ran.Load() != 2 {
		t.Fatalf("second Rounds: widths %v, %d tasks ran", widths, ran.Load())
	}
}

// TestRoundsAllocationFree pins the round barrier's cost on a warm pool: a
// run of rounds allocates only its widths, however many tasks it runs —
// the quiescence gate, the next-round buffers and the gathered frontier are
// all retained, so neither a round nor a task allocates.
func TestRoundsAllocationFree(t *testing.T) {
	leakcheck.Check(t)
	var x *Executor[int]
	x = NewExecutor(2, func(w, task int) {
		if task > 0 {
			x.Fork(w, task-1)
		}
	})
	defer x.Close()
	initial := make([]int, 2000)
	for i := range initial {
		initial[i] = i % 40
	}
	always := func(int) bool { return true }
	x.Rounds(initial, always) // grow the retained buffers
	allocs := testing.AllocsPerRun(5, func() {
		x.Restart()
		if widths := x.Rounds(initial, always); len(widths) != 40 {
			t.Fatalf("rounds = %d, want 40", len(widths))
		}
	})
	// 40 rounds of up to 2000 tasks: only the widths slice is allocated.
	if allocs > 1 {
		t.Fatalf("warm Rounds allocated %.0f objects, want at most 1", allocs)
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
