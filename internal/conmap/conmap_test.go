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

// mustMeet is the test-side Meet wrapper: any error is a test failure (the
// tests below size their tables so capacity cannot run out).
func mustMeet(t testing.TB, m RidgeMap[*int], k Key, v *int) *int {
	t.Helper()
	partner, err := m.Meet(k, v)
	if err != nil {
		t.Fatalf("Meet(%v): %v", k, err)
	}
	return partner
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

// TestOneLoserSequential: two Meet calls on the same ridge — exactly one
// gets a partner, the second arrival, and the partner is the first
// arrival's value.
func TestOneLoserSequential(t *testing.T) {
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.make(100)
			for i := int32(0); i < 100; i++ {
				k := MakeKey([]int32{i, i + 1})
				v1, v2 := new(int), new(int)
				*v1, *v2 = 1, 2
				if got := mustMeet(t, m, k, v1); got != nil {
					t.Fatalf("ridge %d: the first arrival got partner %v", i, got)
				}
				if got := mustMeet(t, m, k, v2); got != v1 {
					t.Fatalf("ridge %d: the second arrival got partner %v, want the first's", i, got)
				}
			}
		})
	}
}

// TestOneLoserConcurrent hammers each map with pairs of goroutines racing on
// the same ridge, verifying Theorems A.1 (exactly one loser: one Meet gets a
// partner) and A.2 (that partner is the winner's value).
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
						got, err := m.Meet(k, mine)
						if err != nil {
							t.Errorf("%s ridge %d: %v", mk.name, r, err)
							return
						}
						if got != nil {
							if got != other {
								t.Errorf("%s ridge %d: partner=%v want %v", mk.name, r, got, other)
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
// paths are exercised heavily — in the sharded map, the second arrivals
// also delete from those probe runs.
func TestProbeCollisions(t *testing.T) {
	for _, mk := range makers() {
		t.Run(mk.name, func(t *testing.T) {
			m := mk.make(64)
			vals := map[int32]*int{}
			for i := int32(0); i < 60; i++ {
				v := new(int)
				vals[i] = v
				if mustMeet(t, m, Key1(i), v) != nil {
					t.Fatalf("fresh key %d reported duplicate", i)
				}
			}
			for i := int32(0); i < 60; i++ {
				got := mustMeet(t, m, Key1(i), new(int))
				if got == nil {
					t.Fatalf("duplicate key %d reported fresh", i)
				}
				if got != vals[i] {
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
			_, err := m.Meet(Key1(i), new(int))
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
				if _, err := m.Meet(Key1(i), new(int)); err != nil {
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

// TestGetValueMissingPanics: the second step of the fixed tables' two-step
// protocol, called on a ridge no facet registered, is caller misuse and
// panics. (ShardedMap has one step, Meet, and no lookup to misuse.)
func TestGetValueMissingPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		get  func() *int
	}{
		{"CAS", func() *int { return NewCASMap[*int](8).GetValue(Key1(42), nil) }},
		{"TAS", func() *int { return NewTASMap[*int](8).GetValue(Key1(42), nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("missing-key GetValue did not panic")
				}
			}()
			tc.get()
		})
	}
}

func TestLen(t *testing.T) {
	cas := NewCASMap[*int](10)
	tas := NewTASMap[*int](10)
	sh := NewShardedMap[*int](10)
	for i := int32(0); i < 5; i++ {
		mustMeet(t, cas, Key1(i), new(int))
		mustMeet(t, tas, Key1(i), new(int))
		mustMeet(t, sh, Key1(i), new(int))
	}
	if cas.Len() != 5 || sh.Len() != 5 {
		t.Fatalf("CAS len=%d sharded len=%d", cas.Len(), sh.Len())
	}
	if tas.Len() != 5 { // one reserved slot per insertion
		t.Fatalf("TAS len=%d", tas.Len())
	}
	// The partners arrive: the fixed tables keep every ridge (CAS one slot,
	// TAS both), and the sharded map drops every answered one.
	for i := int32(0); i < 5; i++ {
		mustMeet(t, cas, Key1(i), new(int))
		mustMeet(t, tas, Key1(i), new(int))
		mustMeet(t, sh, Key1(i), new(int))
	}
	if cas.Len() != 5 || tas.Len() != 10 || sh.Len() != 0 {
		t.Fatalf("after the partners: CAS len=%d TAS len=%d sharded len=%d", cas.Len(), tas.Len(), sh.Len())
	}
}

// TestSemanticsMatchQuick drives all three maps with the same random
// insertion schedule and requires identical outcomes: the same arrivals
// get a partner, and the same one.
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
			a, errA := cas.Meet(Key1(id), v)
			b, errB := tas.Meet(Key1(id), v)
			c, errC := sh.Meet(Key1(id), v)
			if errA != nil || errB != nil || errC != nil {
				return false
			}
			if a != b || b != c {
				return false
			}
		}
		return sh.Len() == 0
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
				m.Meet(keys[i], v) //nolint:errcheck // sized for b.N
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
					m.Meet(MakeKey([]int32{i, i + 1}), v) //nolint:errcheck // sized for b.N
					i++
				}
			})
		})
	}
}

// TestShardedGrowConcurrent starts every shard at its minimum size and has 8
// goroutines race Meet over a shuffled schedule holding both sides of every
// ridge, so shards double while other goroutines probe them and delete
// answered ridges from them. Every ridge must still get exactly one loser,
// which gets its partner, and the drained map must be empty. Both key kinds
// run: exact two-index keys, and three-index keys that carry an id column
// through every growth and deletion.
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
						got, err := m.Meet(keys[r], vals[e])
						if err != nil {
							t.Errorf("ridge %d: %v", r, err)
							return
						}
						if got != nil {
							losers[r].Add(1)
							if want := vals[2*r+1-side]; got != want {
								t.Errorf("ridge %d: Meet returned the wrong partner", r)
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
			if got := m.Len(); got != 0 {
				t.Fatalf("Len = %d after every ridge met its partner, want 0", got)
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
		if mustMeet(t, m, k, vals[i]) != nil {
			t.Fatalf("key %v reported as already present", k)
		}
	}
	for i, k := range uniq {
		got := mustMeet(t, m, k, new(int))
		if got == nil {
			t.Fatalf("key %v reported fresh twice", k)
		}
		if got != vals[i] {
			t.Fatalf("key %v: Meet returned another key's value", k)
		}
	}
}

// TestLongKeysForcedCollision gives keys of three and more indices one
// shared word — and an exact two-index key the same word — so every lookup
// lands in one shard's single probe run, which grows several times: the
// maps must still tell the keys apart by their ids. The second arrivals
// come in an order unrelated to the first, so the sharded map deletes from
// the middle of that run, and every later key must still be found.
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
				if mustMeet(t, m, k, vals[i]) != nil {
					t.Fatalf("key %v collided with an earlier key", k)
				}
			}
			for _, i := range rand.New(rand.NewSource(7)).Perm(len(keys)) {
				got := mustMeet(t, m, keys[i], new(int))
				if got == nil {
					t.Fatalf("key %v reported fresh twice", keys[i])
				}
				if got != vals[i] {
					t.Fatalf("key %v: Meet returned another key's value", keys[i])
				}
			}
		})
	}
}

// TestShardedResetLongKeys runs one ShardedMap through builds of long and
// short keys. A shard keeps its long-key column across a Reset only after
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
			if mustMeet(t, m, k, v) != nil {
				t.Fatalf("width %d: key %v not fresh after Reset", width, k)
			}
			if mustMeet(t, m, k, new(int)) != v {
				t.Fatalf("width %d: key %v not found after insertion", width, k)
			}
		}
	}
	held := func() (n int) {
		for i := range m.shards {
			if m.shards[i].ids != nil {
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

// TestShardedDeletionModel drives one shard through random Meets against a
// plain map that models it: a key present in the model must come back as
// its partner and leave, and an absent one must be fresh and stay. Every
// key lands in shard 0 with a home slot among the last three of the slot
// array at every size, so probe runs wrap past the array's end and
// backward-shift deletion moves entries back across the wrap. Exact keys
// have distinct words; the three-index keys share four words among 40 of
// them, and those words are also exact keys' words, so deletions run
// through forced word collisions. The shard starts at its minimum size and
// grows while deletions go on. After every Meet each live key must be found
// where its probe from home reaches it, and the count must match.
func TestShardedDeletionModel(t *testing.T) {
	const top = 0xffff // the low bits of every word: a home at the end
	word := func(j, back int) uint64 { return uint64(j)<<20 | (top - uint64(back)) }
	var keys []Key
	for j := 1; j <= 120; j++ {
		keys = append(keys, Key{hash: word(j, j%3), id: []int32{int32(j), int32(j + 1)}})
	}
	for j := 0; j < 40; j++ {
		keys = append(keys, Key{hash: word(1+j%4, (1+j%4)%3), id: []int32{int32(j), int32(j + 1), int32(j + 2)}})
	}
	m := NewShardedMap[*int](0)
	sh := &m.shards[0]
	model := map[int]*int{}
	rng := rand.New(rand.NewSource(3))
	wrapped := 0 // removals made while some live entry sat past the wrap
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(keys))
		// Lean towards first arrivals until the shard has grown a few times.
		if _, live := model[i]; live && step < 2000 && rng.Intn(4) > 0 {
			continue
		}
		v := new(int)
		got := mustMeet(t, m, keys[i], v)
		if want, live := model[i]; live {
			if got != want {
				t.Fatalf("step %d key %v: partner %p, want %p", step, keys[i], got, want)
			}
			delete(model, i)
		} else {
			if got != nil {
				t.Fatalf("step %d key %v: fresh key got partner %p", step, keys[i], got)
			}
			model[i] = v
		}
		if sh.count != len(model) {
			t.Fatalf("step %d: shard count %d, model %d", step, sh.count, len(model))
		}
		mask := uint64(len(sh.slots) - 1)
		past := false
		for j, v := range model {
			at, found := sh.find(keys[j])
			if !found || sh.slots[at].val != v {
				t.Fatalf("step %d: live key %v lost", step, keys[j])
			}
			past = past || at < keys[j].hash&mask
		}
		if past && got != nil {
			wrapped++
		}
	}
	if len(sh.slots) < 64 || wrapped == 0 {
		t.Fatalf("the shard grew to %d slots and %d removals met a wrapped run; the test no longer reaches its cases",
			len(sh.slots), wrapped)
	}
}

// TestShardedResetAfterFailure: a build that stops early leaves ridges
// waiting in the map — one, or thousands over every shard. Reset must clear
// exactly what is left, so that every ridge of the next build is fresh
// again and the map drains to empty.
func TestShardedResetAfterFailure(t *testing.T) {
	m := NewShardedMap[*int](0)
	for _, width := range []int{2, 3} {
		for _, left := range []int32{1, 3000} {
			for r := int32(0); r < left; r++ {
				ids := []int32{r, r + 1, r + 2}[:width]
				mustMeet(t, m, MakeKey(ids), new(int)) // no partner: the build stopped
			}
			if m.Len() != int(left) {
				t.Fatalf("width %d: Len %d before Reset, want %d", width, m.Len(), left)
			}
			m.Reset()
			if m.Len() != 0 {
				t.Fatalf("width %d: Len %d after Reset", width, m.Len())
			}
			for r := int32(0); r < 3000; r++ {
				ids := []int32{r, r + 1, r + 2}[:width]
				v := new(int)
				if mustMeet(t, m, MakeKey(ids), v) != nil {
					t.Fatalf("width %d: ridge %v not fresh after Reset", width, ids)
				}
				if mustMeet(t, m, MakeKey(ids), new(int)) != v {
					t.Fatalf("width %d: ridge %v lost its partner after Reset", width, ids)
				}
			}
			if m.Len() != 0 {
				t.Fatalf("width %d: Len %d after a drained build", width, m.Len())
			}
		}
	}
}
