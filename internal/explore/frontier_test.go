package explore

import (
	"testing"
)

// mkUnits returns n units, each owning a distinct world.
func mkUnits(n int) []Unit {
	us := make([]Unit, n)
	for i := range us {
		us[i] = Unit{World: NewWorld(FirstPolicy, int64(i)), Depth: i}
	}
	return us
}

// assertReleased fails if any slot of the captured backing array still
// holds a world pointer.
func assertReleased(t *testing.T, backing []Unit, where string) {
	t.Helper()
	for i, u := range backing {
		if u.World != nil {
			t.Fatalf("%s: consumed slot %d still pins its world", where, i)
		}
	}
}

// TestConsumedFrontierReleasesWorlds is the regression test for the
// drained-frontier leak: the old scheduler's `queue = queue[1:]` kept
// every consumed Unit.World alive in the backing array for the whole
// run. Every frontier container must zero consumed slots so forked
// worlds become collectible the moment they are expanded.
func TestConsumedFrontierReleasesWorlds(t *testing.T) {
	// Oldest-first drain (the thief's end of a deque).
	var q unitQueue
	q.pushAll(mkUnits(8))
	backing := q.buf
	for i := 0; i < 8; i++ {
		if _, ok := q.popHead(); !ok {
			t.Fatal("queue drained early")
		}
	}
	assertReleased(t, backing, "unitQueue.popHead")

	// Newest-first drain (the owner's end).
	q = unitQueue{}
	q.pushAll(mkUnits(8))
	backing = q.buf
	for i := 0; i < 8; i++ {
		if _, ok := q.popTail(); !ok {
			t.Fatal("deque drained early")
		}
	}
	assertReleased(t, backing, "unitQueue.popTail")

	// Priority heap (guided best-first frontier). The captured slice
	// aliases the heap's backing array, so zeroed pops show through it.
	h := &heapFrontier{}
	h.pushAll(mkUnits(8))
	items := h.items
	for i := 0; i < 8; i++ {
		if _, ok := h.pop(); !ok {
			t.Fatal("heap drained early")
		}
	}
	for i, it := range items {
		if it.u.World != nil {
			t.Fatalf("heapFrontier.pop: consumed slot %d still pins its world", i)
		}
	}

	// The root slice handed to the scheduler is zeroed too (the units
	// carry no action, so expanding them is a no-op).
	for _, strat := range []Strategy{BFS{}, Guided{}} {
		x := &Explorer{}
		ctx := newCtx(x, NewWorld(FirstPolicy, 1), 64)
		ctx.seen = plainSeen{}
		units := mkUnits(4)
		x.run(ctx, strat, units, []*Report{{arena: &pathArena{}}})
		assertReleased(t, units, strat.Name()+" root frontier slice")
	}
}

// TestFIFOCompaction drives the queue past the compaction threshold and
// checks order survives and dead slots are zeroed.
func TestFIFOCompaction(t *testing.T) {
	var q unitQueue
	const n = 200
	q.pushAll(mkUnits(n))
	for i := 0; i < 150; i++ {
		u, ok := q.popHead()
		if !ok || u.Depth != i {
			t.Fatalf("pop %d: got depth %d ok=%v", i, u.Depth, ok)
		}
	}
	// Interleave pushes to exercise post-compaction appends.
	q.pushAll([]Unit{{Depth: n}})
	for i := 150; i <= n; i++ {
		u, ok := q.popHead()
		if !ok || u.Depth != i {
			t.Fatalf("pop %d: got depth %d ok=%v", i, u.Depth, ok)
		}
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
	for _, u := range q.buf[:cap(q.buf)] {
		if u.World != nil {
			t.Fatal("compaction left a live world behind")
		}
	}
}

// TestHeapFrontierOrder: pops come out by descending priority, ties by
// insertion order.
func TestHeapFrontierOrder(t *testing.T) {
	h := &heapFrontier{}
	h.pushAll([]Unit{
		{Depth: 0, Priority: 1},
		{Depth: 1, Priority: 3},
		{Depth: 2, Priority: 2},
		{Depth: 3, Priority: 3}, // tie with Depth 1: inserted later, pops later
	})
	want := []int{1, 3, 2, 0}
	for i, w := range want {
		u, ok := h.pop()
		if !ok || u.Depth != w {
			t.Fatalf("pop %d: got depth %d ok=%v, want %d", i, u.Depth, ok, w)
		}
	}
	if _, ok := h.pop(); ok {
		t.Fatal("empty heap popped")
	}
}

// TestDequeStealOrder: the owner pops the newest unit, a thief steals the
// oldest.
func TestDequeStealOrder(t *testing.T) {
	var d wsDeque
	d.pushAll([]Unit{{Depth: 0}, {Depth: 1}, {Depth: 2}})
	if u, _ := d.steal(); u.Depth != 0 {
		t.Fatalf("thief got depth %d, want the oldest (0)", u.Depth)
	}
	if u, _ := d.pop(); u.Depth != 2 {
		t.Fatalf("owner got depth %d, want the newest (2)", u.Depth)
	}
	if u, _ := d.pop(); u.Depth != 1 {
		t.Fatalf("owner got depth %d, want 1", u.Depth)
	}
	if _, ok := d.pop(); ok {
		t.Fatal("empty deque popped")
	}
}

// TestHeapFrontierSpillDropsLowest: when the cap binds, the heap must
// evict the lowest-priority pending unit, never the high-priority work a
// best-first search is about to expand.
func TestHeapFrontierSpillDropsLowest(t *testing.T) {
	h := &heapFrontier{max: 2}
	accepted := h.pushAll([]Unit{
		{Depth: 0, Priority: 5},
		{Depth: 1, Priority: 1},
		{Depth: 2, Priority: 3},
	})
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2", accepted)
	}
	if u, _ := h.pop(); u.Priority != 5 {
		t.Fatalf("first pop priority %v, want 5", u.Priority)
	}
	if u, _ := h.pop(); u.Priority != 3 {
		t.Fatalf("second pop priority %v, want 3 (priority 1 must have spilled)", u.Priority)
	}
	if _, ok := h.pop(); ok {
		t.Fatal("heap should be empty")
	}
}

// TestMaxFrontierCapsBFS: a capped BFS run must report its spill in
// FrontierDropped, mark itself Truncated, and still terminate cleanly.
func TestMaxFrontierCapsBFS(t *testing.T) {
	run := func(cap int) *Report {
		w := fanWorld(6, 3, 4)
		x := NewExplorer(5)
		x.Strategy = BFS{}
		x.MaxFrontier = cap
		return x.Explore(w)
	}
	unbounded := run(0)
	if unbounded.FrontierDropped != 0 || unbounded.Truncated {
		t.Fatalf("unbounded run spilled: %+v", unbounded)
	}
	capped := run(2)
	if capped.FrontierDropped == 0 {
		t.Fatalf("cap 2 never spilled: %+v", capped)
	}
	if !capped.Truncated {
		t.Fatal("spilling run must report Truncated")
	}
	if capped.StatesExplored >= unbounded.StatesExplored {
		t.Fatalf("capped run explored %d states, unbounded %d", capped.StatesExplored, unbounded.StatesExplored)
	}
}

// TestMaxFrontierParallelTerminates: dropped units must be subtracted
// from the work-stealing scheduler's pending counter, or the pool would
// spin forever waiting for work that was spilled. Run under -race.
func TestMaxFrontierParallelTerminates(t *testing.T) {
	for _, strat := range []Strategy{BFS{}, Guided{}} {
		w := fanWorld(6, 3, 4)
		x := NewExplorer(5)
		x.Strategy = strat
		x.Workers = 4
		x.MaxFrontier = 8
		r := x.Explore(w)
		if r.FrontierDropped == 0 || !r.Truncated {
			t.Fatalf("%s: cap 8 never spilled: %+v", strat.Name(), r)
		}
		if r.StatesExplored == 0 {
			t.Fatalf("%s: no states explored", strat.Name())
		}
	}
}

// TestMaxFrontierGuidedKeepsBestWork: under a tight frontier cap the
// best-first search must still reach the suspect branch's violation —
// the cap evicts the low-priority tail, not the head.
func TestMaxFrontierGuidedKeepsBestWork(t *testing.T) {
	w := biasedWorld()
	x := NewExplorer(5)
	x.Strategy = Guided{}
	x.MaxFrontier = 4
	x.Objective = biasedObjective()
	x.Properties = []Property{badChainProperty()}
	r := x.Explore(w)
	if r.Safe() {
		t.Fatalf("guided search under frontier cap missed the violation: %+v", r)
	}
}
