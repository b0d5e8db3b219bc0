package sm

import (
	"maps"
	"math"
	"math/rand"
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
