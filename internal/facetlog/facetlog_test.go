package facetlog

import (
	"sync"
	"testing"
)

func TestSingleStripePreservesOrder(t *testing.T) {
	l := New[int](1)
	for i := 0; i < 1000; i++ {
		l.Append(uint32(i*7), i)
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d", l.Len())
	}
	for i, v := range l.Snapshot() {
		if v != i {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

func TestStripedConcurrentAppends(t *testing.T) {
	l := New[int](8)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Append(uint32(w*per+i), w*per+i)
			}
		}()
	}
	wg.Wait()
	if l.Len() != workers*per {
		t.Fatalf("Len = %d, want %d", l.Len(), workers*per)
	}
	seen := make([]bool, workers*per)
	for _, v := range l.Snapshot() {
		if seen[v] {
			t.Fatalf("element %d appears twice", v)
		}
		seen[v] = true
	}
}

func TestStripeCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 1}, {1, 1}, {3, 4}, {4, 4}, {5, 8}} {
		if l := New[int](tc.in); len(l.stripes) != tc.want {
			t.Errorf("New(%d): %d stripes, want %d", tc.in, len(l.stripes), tc.want)
		}
	}
}

// TestResetRestripes pins the re-striping Reset: a striped log reset to one
// stripe keeps exact append order again, a reset log holds no earlier
// element, and a log regrown to the wider width holds each element once.
func TestResetRestripes(t *testing.T) {
	l := New[int](8)
	for i := 0; i < 100; i++ {
		l.Append(uint32(i), -1)
	}
	for _, stripes := range []int{1, 8, 1} {
		l.Reset(stripes)
		if l.Len() != 0 || len(l.stripes) != stripes {
			t.Fatalf("Reset(%d): Len = %d, %d stripes", stripes, l.Len(), len(l.stripes))
		}
		for i := 0; i < 100; i++ {
			l.Append(uint32(i*7), i)
		}
		got := l.Snapshot()
		seen := make([]bool, 100)
		for i, v := range got {
			if stripes == 1 && v != i {
				t.Fatalf("Reset(1): order broken at %d: got %d", i, v)
			}
			if v < 0 || seen[v] {
				t.Fatalf("Reset(%d): stale or repeated element %d", stripes, v)
			}
			seen[v] = true
		}
	}
}
