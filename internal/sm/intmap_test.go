package sm

import (
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// modelled pairs an IntMap with the map[int]int it must behave like.
type modelled struct {
	m     IntMap[int]
	model map[int]int
}

func (p *modelled) put(k, v int) {
	p.m.Put(k, v)
	p.model[k] = v
}

// fork clones both sides.
func (p *modelled) fork() *modelled {
	return &modelled{m: p.m.Clone(), model: maps.Clone(p.model)}
}

// check compares size, every model key, a few absent keys, and the order
// and content of All.
func (p *modelled) check(t *testing.T, rng *rand.Rand, what string) {
	t.Helper()
	if p.m.Len() != len(p.model) {
		t.Fatalf("%s: Len = %d, model has %d", what, p.m.Len(), len(p.model))
	}
	want := make([]int, 0, len(p.model))
	for k, v := range p.model {
		if got, ok := p.m.Get(k); !ok || got != v {
			t.Fatalf("%s: Get(%d) = %d, %v; model has %d", what, k, got, ok, v)
		}
		want = append(want, k)
	}
	slices.Sort(want)
	for i := 0; i < 8; i++ {
		k := fuzzKey(rng)
		_, has := p.model[k]
		if _, ok := p.m.Get(k); ok != has {
			t.Fatalf("%s: Get(%d) presence = %v", what, k, ok)
		}
	}
	got := make([]int, 0, len(want))
	for k, v := range p.m.All {
		if v != p.model[k] {
			t.Fatalf("%s: All yields %d=%d, model has %d", what, k, v, p.model[k])
		}
		got = append(got, k)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: All order %v, want %v", what, got, want)
	}
}

// fuzzKey mixes dense small keys (the instance-log shape), sparse large
// ones, negatives, and the extremes, so tries of every height occur.
func fuzzKey(rng *rand.Rand) int {
	switch rng.Intn(8) {
	case 0:
		return -rng.Intn(100) - 1
	case 1:
		return rng.Int()
	case 2:
		return -rng.Int()
	case 3:
		return []int{0, 31, 32, 1023, 1024, math.MaxInt, math.MinInt, -1}[rng.Intn(8)]
	case 4:
		return rng.Intn(1 << 20)
	default:
		return rng.Intn(200)
	}
}

// Model-based fuzz: random puts and gets with forks in between; after a
// fork both sides are mutated independently and each must still match its
// own model — a write leaking through a shared node fails the other side.
func TestIntMapMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live := []*modelled{{model: map[int]int{}}}
		for op := 0; op < 600; op++ {
			p := live[rng.Intn(len(live))]
			if rng.Intn(30) == 0 && len(live) < 6 {
				live = append(live, p.fork())
				continue
			}
			p.put(fuzzKey(rng), rng.Int())
			if op%97 == 0 {
				p.check(t, rng, "mid-run")
			}
		}
		for _, p := range live {
			p.check(t, rng, "final")
		}
	}
}

func TestIntMapZeroValueAndEarlyStop(t *testing.T) {
	var m IntMap[string]
	if _, ok := m.Get(0); ok || m.Len() != 0 {
		t.Fatal("zero IntMap is not empty")
	}
	for range m.All {
		t.Fatal("All on an empty map yielded")
	}
	c := m.Clone() // cloning an empty map must not need a root
	c.Put(3, "x")
	if m.Len() != 0 || c.Len() != 1 {
		t.Fatal("clone of the zero value shares state")
	}
	for _, k := range []int{5, -5, 70, -70, 3} {
		c.Put(k, "y")
	}
	var seen []int
	for k := range c.All {
		seen = append(seen, k)
		if k == 3 {
			break
		}
	}
	if !slices.Equal(seen, []int{-70, -5, 3}) {
		t.Fatalf("All stopped after %v, want [-70 -5 3]", seen)
	}
}

// Eight goroutines fork one frozen map and write their forks while a ninth
// reads the original: the Service.Clone contract under Workers > 1. Run
// with -race; the final comparison catches a write that reached a node the
// original can still see.
func TestIntMapConcurrentForks(t *testing.T) {
	var frozen IntMap[int]
	for k := 0; k < 5000; k++ {
		frozen.Put(k, k)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := frozen.Clone()
			for k := g; k < 6000; k += 7 {
				c.Put(k, -g)
			}
			for k := g; k < 6000; k += 7 {
				if v, ok := c.Get(k); !ok || v != -g {
					t.Errorf("fork %d lost its write to %d", g, k)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 3; round++ {
			for k, v := range frozen.All {
				if k != v {
					t.Errorf("original saw %d=%d during the forks", k, v)
					return
				}
			}
		}
	}()
	wg.Wait()
	if frozen.Len() != 5000 {
		t.Fatalf("original grew to %d", frozen.Len())
	}
	for k := 0; k < 5000; k++ {
		if v, ok := frozen.Get(k); !ok || v != k {
			t.Fatalf("original has %d=%d, %v after the forks", k, v, ok)
		}
	}
}

// diffKeys returns what m.Diff(old) yields, holding it to ascending order
// and to the values model says m stores.
func diffKeys(t *testing.T, m, old *IntMap[int], model map[int]int, what string) []int {
	t.Helper()
	var got []int
	m.Diff(old, func(k, v int) bool {
		if want, ok := model[k]; !ok || v != want {
			t.Fatalf("%s: Diff yields %d=%d, map holds %d, %v", what, k, v, want, ok)
		}
		if n := len(got); n > 0 && got[n-1] >= k {
			t.Fatalf("%s: Diff yields %d after %d", what, k, got[n-1])
		}
		got = append(got, k)
		return true
	})
	return got
}

// leafOf names the leaf a key lives in: the leafWidth keys that agree
// above the low leafBits bits.
func leafOf(k int) uint64 { return uint64(k) >> leafBits }

// Diff against a reference: fork a map, let both sides move on as a live
// replica and its checkpoint do, and hold what Diff reports to the two
// models — every key that is new or maps to another value is there with
// its current value, nothing is there for an untouched clone, and a key
// reported beyond those shares a leaf with a key one side wrote.
func TestIntMapDiffMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := &modelled{model: map[int]int{}}
		for i, n := 0, rng.Intn(400); i < n; i++ {
			base.put(fuzzKey(rng), rng.Int())
		}
		fork := base.fork()
		if got := diffKeys(t, &fork.m, &base.m, fork.model, "untouched clone"); len(got) != 0 {
			t.Fatalf("seed %d: Diff of an untouched clone yields %v", seed, got)
		}
		written := map[uint64]bool{}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			p := fork
			if rng.Intn(4) == 0 {
				p = base
			}
			k := fuzzKey(rng)
			p.put(k, rng.Int())
			written[leafOf(k)] = true
		}
		got := diffKeys(t, &fork.m, &base.m, fork.model, "fork vs base")
		for k, v := range fork.model {
			if old, had := base.model[k]; !had || old != v {
				if _, found := slices.BinarySearch(got, k); !found {
					t.Fatalf("seed %d: Diff misses %d (now %d, was %d, %v)", seed, k, v, old, had)
				}
			}
		}
		for _, k := range got {
			if !written[leafOf(k)] {
				t.Fatalf("seed %d: Diff yields %d, in a leaf neither side wrote", seed, k)
			}
		}
	}
}

// A root grows a level at 8, 256 and 8 192 keys (and for the first
// negative key, to full height): the old root then sits under slot 0 of
// the new levels, and Diff across the boundary still skips what it shares.
func TestIntMapDiffAcrossGrowth(t *testing.T) {
	for _, n := range []int{leafWidth, 256, 8192} {
		p := &modelled{model: map[int]int{}}
		for k := 0; k < n; k++ {
			p.put(k, k)
		}
		old := p.fork()
		p.put(n, -1) // first key past the root's reach: one new level
		if p.m.shift != reach(old.m.shift) {
			t.Fatalf("key %d moves the root from shift %d to %d, want one level up", n, old.m.shift, p.m.shift)
		}
		if got := diffKeys(t, &p.m, &old.m, p.model, "grown"); !slices.Equal(got, []int{n}) {
			t.Fatalf("growth past %d keys: Diff yields %v, want [%d]", n, got, n)
		}
		p.put(-7, -2) // a negative key: every level there is
		p.put(3, -3)  // and a write below the old root
		if p.m.shift != trieTopShift {
			t.Fatalf("a negative key leaves the root at shift %d, want %d", p.m.shift, trieTopShift)
		}
		got := diffKeys(t, &p.m, &old.m, p.model, "grown to full height")
		want := []int{-7}
		for k := 0; k < leafWidth; k++ { // key 3's leaf, whole
			want = append(want, k)
		}
		if want = append(want, n); !slices.Equal(got, want) {
			t.Fatalf("growth past %d keys, then to full height: Diff yields %v, want %v", n, got, want)
		}
		// The other way round the old map is the taller one: no shared
		// spine to follow, so everything is reported.
		if got := diffKeys(t, &old.m, &p.m, old.model, "shrunk"); len(got) != n {
			t.Fatalf("Diff against a taller map yields %d keys, want all %d", len(got), n)
		}
	}
}

// The extreme keys sit on either side of the top level's sign bit and at
// the ends of each side: Get finds them, All yields math.MinInt first and
// math.MaxInt last, and Diff across the sign level reports exactly the
// leaves a fork wrote on either side of it.
func TestIntMapExtremeKeys(t *testing.T) {
	extremes := []int{math.MinInt, math.MinInt + 1, -9, -8, -1, 0, 7, 8, math.MaxInt - 1, math.MaxInt}
	rng := rand.New(rand.NewSource(1))
	p := &modelled{model: map[int]int{}}
	for i, k := range extremes {
		p.put(k, i)
	}
	p.check(t, rng, "extremes")
	if p.m.shift != trieTopShift {
		t.Fatalf("root at shift %d with negative keys stored, want %d", p.m.shift, trieTopShift)
	}
	var order []int
	for k := range p.m.All {
		order = append(order, k)
	}
	if !slices.Equal(order, extremes) {
		t.Fatalf("All yields %v, want %v", order, extremes)
	}
	for _, c := range []struct {
		write int
		want  []int // the whole leaf the write lands in
	}{
		{math.MinInt, []int{math.MinInt, math.MinInt + 1}},
		{-1, []int{-8, -1}},
		{0, []int{0, 7}},
		{math.MaxInt, []int{math.MaxInt - 1, math.MaxInt}},
	} {
		fork := p.fork()
		fork.put(c.write, -1)
		if got := diffKeys(t, &fork.m, &p.m, fork.model, "extreme write"); !slices.Equal(got, c.want) {
			t.Fatalf("a write to %d: Diff yields %v, want %v", c.write, got, c.want)
		}
		fork.check(t, rng, "extreme fork")
	}
	p.check(t, rng, "extremes after the forks")
	fork := p.fork()
	fork.put(math.MaxInt, -1)
	fork.put(math.MinInt, -1)
	if got, want := diffKeys(t, &fork.m, &p.m, fork.model, "both sides"), []int{math.MinInt, math.MinInt + 1, math.MaxInt - 1, math.MaxInt}; !slices.Equal(got, want) {
		t.Fatalf("writes on both sides of the sign level: Diff yields %v, want %v", got, want)
	}
}

// Cost-shape gate (make bench-alloc): the first write after a fork copies
// one node per trie level and nothing else, so a propState-sized value
// (104 B) costs one object per level and at most 2 KB, whatever the size
// of the map. A 32-wide leaf of those values alone is 3.3 KB.
func TestIntMapForkWriteBytes(t *testing.T) {
	type value [13]uint64 // 104 B, the size of paxos' propState
	const runs, maxBytes = 200, 2 << 10
	for _, n := range []int{64, 4096, 100000} {
		var m IntMap[value]
		for k := 0; k < n; k++ {
			m.Put(k, value{uint64(k)})
		}
		levels := 1
		for s := m.shift; s > 0; s = down(s) {
			levels++
		}
		k, sink := n/2, uint64(0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects := testing.AllocsPerRun(runs, func() {
			c := m.Clone()
			c.Put(k, value{sink})
			v, _ := c.Get(k)
			sink += v[0] + 1
		})
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun runs fn once more, unmeasured
		t.Logf("%d keys: %d levels, %.0f objects, %.0f B per Clone+Put", n, levels, objects, bytes)
		if objects != float64(levels) || bytes > maxBytes {
			t.Errorf("Clone+Put at %d keys allocates %.0f objects and %.0f B: want %d (one per level) and at most %d B", n, objects, bytes, levels, maxBytes)
		}
		if v, _ := m.Get(k); v[0] != uint64(k) {
			t.Fatalf("the forks' writes reached the original: key %d holds %d", k, v[0])
		}
	}
}

func TestIntMapDiffUnrelatedAndEmpty(t *testing.T) {
	a := &modelled{model: map[int]int{}}
	b := &modelled{model: map[int]int{}}
	for k := -40; k < 300; k += 3 {
		a.put(k, k)
		b.put(k, k) // same content, no shared node
	}
	if got := diffKeys(t, &a.m, &b.m, a.model, "unrelated"); len(got) != len(a.model) {
		t.Fatalf("Diff of unrelated maps yields %d keys, want all %d", len(got), len(a.model))
	}
	var empty IntMap[int]
	if got := diffKeys(t, &a.m, &empty, a.model, "vs empty"); len(got) != len(a.model) {
		t.Fatalf("Diff against an empty map yields %d keys, want all %d", len(got), len(a.model))
	}
	if got := diffKeys(t, &a.m, nil, a.model, "vs nil"); len(got) != len(a.model) {
		t.Fatalf("Diff against nil yields %d keys, want all %d", len(got), len(a.model))
	}
	if got := diffKeys(t, &empty, &a.m, nil, "empty vs full"); len(got) != 0 {
		t.Fatalf("Diff of an empty map yields %v", got)
	}
	n := 0
	a.m.Diff(nil, func(int, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Diff kept going for %d entries after fn returned false at 5", n)
	}
}

// Eight goroutines fork one frozen map, write their forks and diff them
// against the original, which nobody writes: the root-to-root check under
// Workers > 1. Run with -race.
func TestIntMapConcurrentDiff(t *testing.T) {
	var frozen IntMap[int]
	for k := 0; k < 5000; k++ {
		frozen.Put(k, k)
	}
	var wg sync.WaitGroup
	for g := 1; g <= 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := frozen.Clone()
			for round := 0; round < 20; round++ {
				k := 5000 + g*100 + round
				c.Put(k, -g)
				c.Put(g*32, -g) // and one write into the shared part
				var got []int
				c.Diff(&frozen, func(k, v int) bool {
					if k >= 5000 {
						got = append(got, k)
					}
					return true
				})
				if len(got) == 0 || got[len(got)-1] != k {
					t.Errorf("fork %d round %d: Diff past the original's keys yields %v, want it to end in %d", g, round, got, k)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 5000; k++ {
		if v, ok := frozen.Get(k); !ok || v != k {
			t.Fatalf("original has %d=%d, %v after the forks", k, v, ok)
		}
	}
}
