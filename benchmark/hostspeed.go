package main

import (
	"math/rand"
	"sort"
	"time"
)

// The benchmark runs on a few cores of a shared host, and the host's speed
// is not constant. Measured on the reference container, two things move
// it, independently, by 25 to 70 % in bursts of tens of milliseconds and
// plateaus of up to a minute: the core clock steps between two
// frequencies, and neighbours on the same physical core and caches make
// every load slower. A wall-clock reading therefore measures the program
// times the host's speed at that moment.
//
// To report the first factor alone, the timed work of every rep is
// interleaved — once per refEvery, between two events — with one pass of
// a fixed reference: benchmark-owned code that touches nothing of the
// program under test. A pass has two probes, timed apart: a dependent
// multiply chain, whose time follows the core clock and nothing else,
// and a walk through small working sets with an ordinary instruction
// mix, whose time follows the contention and hardly the clock. The rep's
// slowdown is the product of the two medians, each over its nominal
// value; the rep's timings are divided by it. Passes are outside every
// stopwatch sample and are subtracted from the rep's wall and CPU time.
// Over 150 reps of paxos_steer in a noisy hour, log(event cost) regressed
// on the two probes with slopes 1.2 and 0.7, and dividing by their
// product took the spread of a 10-second run's median from 15 % to 7 %.

// clockNominal is what the clock probe takes on the reference container
// (2 vCPUs of a 2.1 GHz Xeon) at its base clock. What the contention probe
// takes there with quiet neighbours depends on how much of its tables the
// work around it leaves in the caches: cacheNominalWarm when passes run
// back to back in a bracket, and between events a value per workload, in
// its spec. The nominal values are only a scale, making compensated times
// read as times on that host when it is quiet. They must never change, or
// every baseline shifts with them.
const (
	clockNominal     = 6400 * time.Nanosecond
	cacheNominalWarm = 18 * time.Microsecond
)

// refEvery is how much timed work passes between two reference passes, so
// the reference costs a run about a twentieth of its time.
const refEvery = time.Millisecond

// refBracket is how many passes are taken before and after a piece of
// work that cannot be interleaved (a set-up, one exploration).
const refBracket = 20

// refKernel holds the probes' tables. The probes allocate nothing, so they
// never trigger or wait for a collection of the deployment's heap.
type refKernel struct {
	nodes      []refNode         // a linked walk over small structs holding small maps
	chase      []uint32          // one random cycle through 32 KB
	keys       []uint64          // lookups in a built-in map
	table      map[uint64]uint64 //
	tmpl, work []int             // copy and sort
	src, dst   []byte            // block copy
	sink       uint64
}

type refNode struct {
	a    uint64
	next *refNode
	m    map[int]int
}

// newRefKernel builds the tables from a fixed seed: they are the same in
// every run, whatever --seed says.
func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(0x5eed))
	k := &refKernel{
		nodes: make([]refNode, 2048),
		chase: make([]uint32, 1<<13),
		table: make(map[uint64]uint64, 1<<14),
		tmpl:  rng.Perm(256),
		work:  make([]int, 256),
		src:   make([]byte, 192<<10),
		dst:   make([]byte, 192<<10),
	}
	for i := range k.nodes {
		k.nodes[i] = refNode{a: rng.Uint64(), next: &k.nodes[rng.Intn(len(k.nodes))], m: map[int]int{i: i, i + 1: i}}
	}
	// Sattolo's algorithm: a single cycle through every slot.
	for i := range k.chase {
		k.chase[i] = uint32(i)
	}
	for i := len(k.chase) - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.chase[i], k.chase[j] = k.chase[j], k.chase[i]
	}
	for i := 0; i < 1<<14; i++ {
		key := rng.Uint64()
		k.keys = append(k.keys, key)
		k.table[key] = uint64(i)
	}
	return k
}

// clock is the core-clock probe: a chain of dependent multiplies.
func (k *refKernel) clock() {
	h := k.sink | 1
	for i := 0; i < 4096; i++ {
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
	}
	k.sink = h
}

// cache is the contention probe: five pieces of about equal cost.
func (k *refKernel) cache() {
	h := k.sink
	n := &k.nodes[h%uint64(len(k.nodes))]
	for i := 0; i < 600; i++ {
		h += n.a + uint64(len(n.m)) + uint64(n.m[i])
		n = n.next
	}
	p := uint32(h) % uint32(len(k.chase))
	for i := 0; i < 1600; i++ {
		p = k.chase[p]
	}
	h += uint64(p)
	at := int(h % uint64(len(k.keys)))
	for i := 0; i < 96; i++ {
		h += k.table[k.keys[at]]
		if at++; at == len(k.keys) {
			at = 0
		}
	}
	copy(k.work, k.tmpl)
	sort.Ints(k.work)
	h += uint64(k.work[int(h%uint64(len(k.work)))])
	copy(k.dst, k.src)
	k.sink = h + uint64(k.dst[int(h%uint64(len(k.dst)))])
}

// hostMeter collects the reference passes taken around and between the
// pieces of one stretch of timed work.
type hostMeter struct {
	k              *refKernel
	clockNs, cache []float64     // probe times since the last reading
	spent          time.Duration // wall time of those passes
}

func newHostMeter() *hostMeter { return &hostMeter{k: newRefKernel()} }

// pass runs and times both probes once.
func (h *hostMeter) pass() {
	t0 := time.Now()
	h.k.clock()
	t1 := time.Now()
	h.k.cache()
	t2 := time.Now()
	h.clockNs = append(h.clockNs, float64(t1.Sub(t0)))
	h.cache = append(h.cache, float64(t2.Sub(t1)))
	h.spent += t2.Sub(t0)
}

// bracket takes refBracket passes: the reading before or after a piece of
// work that cannot be interleaved.
func (h *hostMeter) bracket() {
	for i := 0; i < refBracket; i++ {
		h.pass()
	}
}

// hostReading is what the passes of one stretch showed: each probe's
// median — so a pass an interrupt landed in does not move it — and the
// wall time the passes took.
type hostReading struct {
	clockNs, cacheNs float64
	spent            time.Duration
}

// reading ends a stretch and starts the next.
func (h *hostMeter) reading() hostReading {
	r := hostReading{medianOf(h.clockNs), medianOf(h.cache), h.spent}
	h.clockNs, h.cache, h.spent = h.clockNs[:0], h.cache[:0], 0
	return r
}

// slowdown is how much slower than nominal the host ran during the
// stretch: 1 on the quiet reference container, 1.4 on a host, or at a
// moment, 40 % slower. cacheNominal is the contention probe's nominal
// time for the way the stretch ran it.
func (r hostReading) slowdown(cacheNominal time.Duration) float64 {
	return r.clockNs / float64(clockNominal) * r.cacheNs / float64(cacheNominal)
}
