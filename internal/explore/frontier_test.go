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
// run. The deques must zero consumed slots so forked worlds become
// collectible the moment they are expanded.
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

	// The root slice handed to the scheduler is zeroed too (the units
	// carry no action, so expanding them is a no-op).
	x := &Explorer{}
	ctx := newCtx(x, NewWorld(FirstPolicy, 1), 64)
	ctx.seen = plainSeen{}
	units := mkUnits(4)
	x.run(ctx, BFS{}, units, []*Report{{arena: &pathArena{}}})
	assertReleased(t, units, "bfs root frontier slice")
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
	w := fanWorld(6, 3, 4)
	x := NewExplorer(5)
	x.Strategy = BFS{}
	x.Workers = 4
	x.MaxFrontier = 8
	r := x.Explore(w)
	if r.FrontierDropped == 0 || !r.Truncated {
		t.Fatalf("cap 8 never spilled: %+v", r)
	}
	if r.StatesExplored == 0 {
		t.Fatal("no states explored")
	}
}
