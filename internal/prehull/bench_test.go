package prehull

import "testing"

// BenchmarkReduceBall1M times a warm Reduce over 1e6 shuffled uniform-ball 3D
// points with a retained Scratch and Z-order blocks: the pre-hull a
// default-options Builder runs on an interior-heavy input. The first call,
// which grows the retained state, runs outside the timer.
func BenchmarkReduceBall1M(b *testing.B) {
	pts := shuffledBall(1, 1_000_000, 3)
	cfg := Config{ZOrder: true, Scratch: new(Scratch)}
	if _, err := Reduce(pts, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reduce(pts, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
