package conmap

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"parhull/internal/faultinject"
)

// mustInsert is the test-side InsertAndSet wrapper: any error is a test
// failure (the tests below size their tables so capacity cannot run out).
func mustInsert(t testing.TB, m RidgeMap[*int], k Key, v *int) bool {
	t.Helper()
	first, err := m.InsertAndSet(k, v)
	if err != nil {
		t.Fatalf("InsertAndSet(%v): %v", k, err)
	}
	return first
}

func TestKey(t *testing.T) {
	a := MakeKey([]int32{1, 2, 3})
	b := MakeKey([]int32{1, 2, 3})
	c := MakeKey([]int32{1, 2, 4})
	d := MakeKey([]int32{1, 2})
	if !a.Equal(b) || a.Hash() != b.Hash() {
		t.Error("equal keys differ")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("distinct keys equal")
	}
	if Key1(7).Equal(Key1(8)) || !Key1(7).Equal(MakeKey([]int32{7})) {
		t.Error("Key1 misbehaves")
	}
	if a.String() != "[1 2 3]" {
		t.Errorf("String: %q", a.String())
	}
}

func TestKeyHashDistribution(t *testing.T) {
	// Property: differing ids give differing hashes with overwhelming
	// probability (here: no collision among a structured family).
	seen := map[uint64][]int32{}
	for i := int32(0); i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			k := MakeKey([]int32{i, j})
			if prev, ok := seen[k.Hash()]; ok {
				t.Fatalf("hash collision: %v vs [%d %d]", prev, i, j)
			}
			seen[k.Hash()] = []int32{i, j}
		}
	}
}

type mapMaker struct {
	name string
	make func(expected int) RidgeMap[*int]
}

func makers() []mapMaker {
	return []mapMaker{
		{"CAS", func(n int) RidgeMap[*int] { return NewCASMap[*int](n) }},
		{"TAS", func(n int) RidgeMap[*int] { return NewTASMap[*int](n) }},
		{"Sharded", func(n int) RidgeMap[*int] { return NewShardedMap[*int](n) }},
	}
}

// TestOneLoserSequential: two InsertAndSet calls on the same ridge — exactly
// one returns false, and the loser's GetValue sees the winner's value.
func TestOneLoserSequential(t *testing.T) {
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.make(100)
			for i := int32(0); i < 100; i++ {
				k := MakeKey([]int32{i, i + 1})
				v1, v2 := new(int), new(int)
				*v1, *v2 = 1, 2
				first := mustInsert(t, m, k, v1)
				second := mustInsert(t, m, k, v2)
				if !first || second {
					t.Fatalf("ridge %d: first=%v second=%v", i, first, second)
				}
				if got := m.GetValue(k, v2); got != v1 {
					t.Fatalf("ridge %d: GetValue returned %v", i, got)
				}
			}
		})
	}
}

// TestOneLoserConcurrent hammers each map with pairs of goroutines racing on
// the same ridge, verifying Theorems A.1 (exactly one loser) and A.2 (the
// loser can read the winner's value).
func TestOneLoserConcurrent(t *testing.T) {
	const ridges = 2000
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.make(ridges)
			vals := make([]*int, 2*ridges)
			for i := range vals {
				vals[i] = new(int)
				*vals[i] = i
			}
			losers := make([]int32, ridges) // count of false returns per ridge
			var wg sync.WaitGroup
			var mu sync.Mutex
			for r := 0; r < ridges; r++ {
				for side := 0; side < 2; side++ {
					wg.Add(1)
					go func(r, side int) {
						defer wg.Done()
						k := MakeKey([]int32{int32(r), int32(r + 1)})
						mine := vals[2*r+side]
						other := vals[2*r+1-side]
						first, err := m.InsertAndSet(k, mine)
						if err != nil {
							t.Errorf("%s ridge %d: %v", mk.name, r, err)
							return
						}
						if !first {
							got := m.GetValue(k, mine)
							if got != other {
								t.Errorf("%s ridge %d: GetValue=%v want %v", mk.name, r, got, other)
							}
							mu.Lock()
							losers[r]++
							mu.Unlock()
						}
					}(r, side)
				}
			}
			wg.Wait()
			for r, n := range losers {
				if n != 1 {
					t.Fatalf("%s ridge %d: %d losers, want exactly 1", mk.name, r, n)
				}
			}
		})
	}
}

// TestProbeCollisions forces many keys into a tiny table so linear probing
// paths are exercised heavily.
func TestProbeCollisions(t *testing.T) {
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.make(64)
			vals := map[int32]*int{}
			for i := int32(0); i < 60; i++ {
				v := new(int)
				vals[i] = v
				if !mustInsert(t, m, Key1(i), v) {
					t.Fatalf("fresh key %d reported duplicate", i)
				}
			}
			for i := int32(0); i < 60; i++ {
				w := new(int)
				if mustInsert(t, m, Key1(i), w) {
					t.Fatalf("duplicate key %d reported fresh", i)
				}
				if got := m.GetValue(Key1(i), w); got != vals[i] {
					t.Fatalf("key %d: wrong partner", i)
				}
			}
		})
	}
}

// TestCapacityExhaustion: the fixed-capacity paper tables must fail with the
// typed ErrCapacity — never loop, corrupt, or panic — when overfilled. This
// is the bottom rung of the engine's degradation ladder.
func TestCapacityExhaustion(t *testing.T) {
	check := func(name string, m RidgeMap[*int], cap int) {
		for i := int32(0); ; i++ {
			_, err := m.InsertAndSet(Key1(i), new(int))
			if err != nil {
				if !errors.Is(err, ErrCapacity) {
					t.Errorf("%s: overfill error %v does not wrap ErrCapacity", name, err)
				}
				return
			}
			if int(i) > 10*cap {
				t.Fatalf("%s: inserted %d into capacity %d without error", name, i, cap)
			}
		}
	}
	check("CAS", NewCASMap[*int](4), 4)
	check("TAS", NewTASMap[*int](4), 4)
}

// TestInjectedCapacityFailure: an armed injector forces ErrCapacity on the
// named visit even though the table has room, and fires exactly once.
func TestInjectedCapacityFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(in *faultinject.Injector) RidgeMap[*int]
	}{
		{"CAS", func(in *faultinject.Injector) RidgeMap[*int] { return NewCASMap[*int](64).Inject(in) }},
		{"TAS", func(in *faultinject.Injector) RidgeMap[*int] { return NewTASMap[*int](64).Inject(in) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := faultinject.New(1).FailAt(faultinject.SiteMapInsert, 3)
			m := tc.mk(in)
			var errs int
			for i := int32(0); i < 10; i++ {
				if _, err := m.InsertAndSet(Key1(i), new(int)); err != nil {
					if !errors.Is(err, ErrCapacity) {
						t.Fatalf("injected error %v does not wrap ErrCapacity", err)
					}
					if i != 2 {
						t.Fatalf("failure fired at visit %d, want 3", i+1)
					}
					errs++
				}
			}
			if errs != 1 {
				t.Fatalf("injected failure fired %d times, want exactly 1", errs)
			}
			if got := in.Fired(faultinject.SiteMapInsert); got != 1 {
				t.Fatalf("Fired = %d, want 1", got)
			}
		})
	}
}

func TestGetValueMissingPanics(t *testing.T) {
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("missing-key GetValue did not panic")
				}
			}()
			mk.make(8).GetValue(Key1(42), nil)
		})
	}
}

func TestLen(t *testing.T) {
	cas := NewCASMap[*int](10)
	tas := NewTASMap[*int](10)
	sh := NewShardedMap[*int](10)
	for i := int32(0); i < 5; i++ {
		mustInsert(t, cas, Key1(i), new(int))
		mustInsert(t, tas, Key1(i), new(int))
		mustInsert(t, sh, Key1(i), new(int))
	}
	if cas.Len() != 5 || sh.Len() != 5 {
		t.Fatalf("CAS len=%d sharded len=%d", cas.Len(), sh.Len())
	}
	if tas.Len() != 5 { // one reserved slot per insertion
		t.Fatalf("TAS len=%d", tas.Len())
	}
}

// TestSemanticsMatchQuick drives all three maps with the same random
// insertion schedule and requires identical winner/loser outcomes.
func TestSemanticsMatchQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(100)
		cas := NewCASMap[*int](2 * n)
		tas := NewTASMap[*int](2 * n)
		sh := NewShardedMap[*int](2 * n)
		// Each ridge id appears exactly twice in the schedule.
		sched := make([]int32, 0, 2*n)
		for i := int32(0); i < int32(n); i++ {
			sched = append(sched, i, i)
		}
		rng.Shuffle(len(sched), func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
		for _, id := range sched {
			v := new(int)
			a, errA := cas.InsertAndSet(Key1(id), v)
			b, errB := tas.InsertAndSet(Key1(id), v)
			c, errC := sh.InsertAndSet(Key1(id), v)
			if errA != nil || errB != nil || errC != nil {
				return false
			}
			if a != b || b != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRidgeMapInsert(b *testing.B) {
	for _, mk := range makers() {
		b.Run(mk.name, func(b *testing.B) {
			m := mk.make(b.N + 1)
			v := new(int)
			keys := make([]Key, b.N)
			for i := range keys {
				keys[i] = MakeKey([]int32{int32(i), int32(i + 1), int32(i + 2)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.InsertAndSet(keys[i], v) //nolint:errcheck // sized for b.N
			}
		})
	}
}

func BenchmarkRidgeMapInsertParallel(b *testing.B) {
	for _, mk := range makers() {
		b.Run(mk.name, func(b *testing.B) {
			m := mk.make(b.N + 1)
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				v := new(int)
				// Give each goroutine a disjoint id range.
				base := ctr.Add(int64(b.N)+1) - int64(b.N) - 1
				i := int32(base)
				for pb.Next() {
					m.InsertAndSet(MakeKey([]int32{i, i + 1}), v) //nolint:errcheck // sized for b.N
					i++
				}
			})
		})
	}
}

// TestShardedGrowConcurrent starts every shard at its minimum size and has 8
// goroutines race InsertAndSet/GetValue over a shuffled schedule holding
// both sides of every ridge, so shards double while other goroutines probe
// them. Every ridge must still get exactly one loser, which sees its
// partner. Both key kinds run: exact two-index keys, and three-index keys
// that carry an id column through every growth.
func TestShardedGrowConcurrent(t *testing.T) {
	const (
		workers = 8
		ridges  = 20000
	)
	for _, width := range []int{2, 3} {
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			m := NewShardedMap[*int](0)
			keys := make([]Key, ridges)
			for r := range keys {
				ids := make([]int32, width)
				for j := range ids {
					ids[j] = int32(r + j)
				}
				keys[r] = MakeKey(ids)
			}
			vals := make([]*int, 2*ridges)
			for i := range vals {
				vals[i] = new(int)
			}
			sched := make([]int, 2*ridges) // entry 2r+side: side of ridge r
			for i := range sched {
				sched[i] = i
			}
			rand.New(rand.NewSource(int64(width))).Shuffle(len(sched), func(i, j int) {
				sched[i], sched[j] = sched[j], sched[i]
			})
			losers := make([]atomic.Int32, ridges)
			var wg sync.WaitGroup
			per := len(sched) / workers
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(part []int) {
					defer wg.Done()
					for _, e := range part {
						r, side := e/2, e%2
						first, err := m.InsertAndSet(keys[r], vals[e])
						if err != nil {
							t.Errorf("ridge %d: %v", r, err)
							return
						}
						if !first {
							losers[r].Add(1)
							if got, want := m.GetValue(keys[r], vals[e]), vals[2*r+1-side]; got != want {
								t.Errorf("ridge %d: GetValue returned the wrong partner", r)
							}
						}
					}
				}(sched[w*per : (w+1)*per])
			}
			wg.Wait()
			for r := range losers {
				if n := losers[r].Load(); n != 1 {
					t.Fatalf("ridge %d: %d losers, want exactly 1", r, n)
				}
			}
			if got := m.Len(); got != ridges {
				t.Fatalf("Len = %d, want %d", got, ridges)
			}
		})
	}
}

// TestExactKeysDistinct checks that one- and two-index keys, whose words
// are compared without ids, never conflate distinct ridges: adjacent ids,
// a pair against its swapped order, a single index against the pairs that
// contain it, and ids near 2^31. Every key must also be a fresh, separate
// entry of a ShardedMap.
func TestExactKeysDistinct(t *testing.T) {
	const top = math.MaxInt32
	var keys []Key
	for _, a := range []int32{0, 1, 2, 3, top - 2, top - 1, top} {
		keys = append(keys, Key1(a))
		for _, b := range []int32{0, 1, 2, 3, top - 2, top - 1, top} {
			if a != b {
				keys = append(keys, MakeKey([]int32{a, b})) // both orders
			}
		}
	}
	for i := int32(0); i < 500; i++ {
		keys = append(keys, MakeKey([]int32{i, i + 1}), MakeKey([]int32{i, i + 2}))
	}
	seen := map[string]bool{}
	var uniq []Key
	for _, k := range keys {
		if !seen[k.String()] {
			seen[k.String()] = true
			uniq = append(uniq, k)
		}
	}
	words := map[uint64]string{}
	for _, k := range uniq {
		if k.Hash() == 0 {
			t.Fatalf("key %v has the empty-slot word 0", k)
		}
		if prev, ok := words[k.Hash()]; ok {
			t.Fatalf("keys %s and %v share the word %#x", prev, k, k.Hash())
		}
		words[k.Hash()] = k.String()
	}
	m := NewShardedMap[*int](0)
	vals := make([]*int, len(uniq))
	for i, k := range uniq {
		vals[i] = new(int)
		if !mustInsert(t, m, k, vals[i]) {
			t.Fatalf("key %v reported as already present", k)
		}
	}
	for i, k := range uniq {
		if mustInsert(t, m, k, new(int)) {
			t.Fatalf("key %v reported fresh twice", k)
		}
		if m.GetValue(k, nil) != vals[i] {
			t.Fatalf("key %v: GetValue returned another key's value", k)
		}
	}
}

// TestLongKeysForcedCollision gives keys of three and more indices one
// shared word — and an exact two-index key the same word — so every lookup
// lands in one shard's single probe run, which grows several times: the
// maps must still tell the keys apart by their ids.
func TestLongKeysForcedCollision(t *testing.T) {
	const word = 0x9e3779b97f4a7c15
	var keys []Key
	for i := int32(0); i < 60; i++ {
		keys = append(keys, Key{hash: word, id: []int32{i, i + 1, i + 2}})
	}
	keys = append(keys,
		Key{hash: word, id: []int32{0, 1, 2, 3}},
		Key{hash: word, id: []int32{0, 1}})
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.make(4 * len(keys))
			vals := make([]*int, len(keys))
			for i, k := range keys {
				vals[i] = new(int)
				if !mustInsert(t, m, k, vals[i]) {
					t.Fatalf("key %v collided with an earlier key", k)
				}
			}
			for i, k := range keys {
				w := new(int)
				if mustInsert(t, m, k, w) {
					t.Fatalf("key %v reported fresh twice", k)
				}
				if got := m.GetValue(k, w); got != vals[i] {
					t.Fatalf("key %v: GetValue returned another key's value", k)
				}
			}
		})
	}
}

// TestShardedResetLongKeys runs one ShardedMap through builds of long and
// short keys. A shard keeps its long-key storage across a Reset only after
// a build that stored a long key in it; after a build of exact keys alone
// every shard drops it. Every build, before and after either kind of Reset,
// must see each of its keys fresh once and find it afterwards.
func TestShardedResetLongKeys(t *testing.T) {
	m := NewShardedMap[*int](0)
	build := func(width int) {
		t.Helper()
		for r := int32(0); r < 2000; r++ {
			ids := make([]int32, width)
			for j := range ids {
				ids[j] = r + int32(j)
			}
			k, v := MakeKey(ids), new(int)
			if !mustInsert(t, m, k, v) {
				t.Fatalf("width %d: key %v not fresh after Reset", width, k)
			}
			if mustInsert(t, m, k, new(int)) || m.GetValue(k, nil) != v {
				t.Fatalf("width %d: key %v not found after insertion", width, k)
			}
		}
	}
	held := func() (n int) {
		for i := range m.shards {
			if m.shards[i].ref != nil {
				n++
			}
		}
		return n
	}
	build(3)
	m.Reset()
	if held() == 0 {
		t.Fatal("Reset after a build of 3-index keys dropped every long-key column")
	}
	build(4)
	m.Reset()
	build(2)
	if held() == 0 {
		t.Fatal("Reset after a build of 4-index keys dropped every long-key column")
	}
	m.Reset()
	if n := held(); n != 0 {
		t.Fatalf("%d shards kept a long-key column after a build of exact keys", n)
	}
	build(3)
}
