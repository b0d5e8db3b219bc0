package explore

import "sync"

// Frontier containers. The scheduler (scheduler.go) drains units out of
// one of two shapes: per-worker deques (wsDeque; EXPERIMENTS.md E14 is
// why workers steal instead of sharing one locked queue) or, for
// best-first strategies, one priority heap that all workers share. Both
// zero consumed slots: a Unit owns a forked *World, and a pointer left
// behind in a backing array would pin that world — services, timers,
// in-flight messages — for the rest of the run. Both also honor the
// Explorer.MaxFrontier spill cap: when the cap binds, the lowest-priority
// pending unit is dropped (on a deque, the newest incoming one), counted
// into the run's FrontierDropped tally, and its world recycled.

// unitQueue is an unsynchronized double-ended unit buffer: pushes append
// at the tail, pops take either end. buf[head:] are the live entries.
type unitQueue struct {
	buf  []Unit
	head int
}

func (q *unitQueue) len() int { return len(q.buf) - q.head }

func (q *unitQueue) pushAll(us []Unit) {
	if len(us) > 0 {
		q.buf = append(q.buf, us...)
	}
}

// popHead takes the oldest entry (a thief's end). The vacated slot is
// zeroed and the dead prefix compacted away once it dominates the buffer,
// so consumed units never pin their worlds.
func (q *unitQueue) popHead() (Unit, bool) {
	if q.head == len(q.buf) {
		return Unit{}, false
	}
	u := q.buf[q.head]
	q.buf[q.head] = Unit{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head >= 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	return u, true
}

// popTail takes the newest entry (the owner's end), zeroing the vacated
// slot.
func (q *unitQueue) popTail() (Unit, bool) {
	if q.head == len(q.buf) {
		return Unit{}, false
	}
	u := q.buf[len(q.buf)-1]
	q.buf[len(q.buf)-1] = Unit{}
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return u, true
}

// frontier is a worker's view of its own queue. pop returns the queue's
// next unit by its own discipline: the newest for a deque, the highest
// priority for the heap. pushAll returns how many of the offered units
// were actually enqueued — the spill cap may drop the rest — so the
// scheduler's pending count stays exact. Both are safe for concurrent use.
type frontier interface {
	pushAll(us []Unit) int
	pop() (Unit, bool)
}

// wsDeque is one worker's work-stealing deque: the owner pushes and pops
// at the tail (LIFO — the freshest unit's world is the one still warm in
// cache), thieves steal from the head (FIFO — the oldest unit roots the
// largest remaining subtree, so one steal buys the thief the most work).
// A plain mutex per deque is enough: the owner's operations are almost
// always uncontended, and a steal contends with at most one owner.
type wsDeque struct {
	mu sync.Mutex
	q  unitQueue
	// max caps the deque's pending units (its share of MaxFrontier);
	// zero means unbounded.
	max int
	ctx *Ctx
	// Pad so neighboring deques in the scheduler's slice do not false-share.
	_ [24]byte
}

// pushAll enqueues us, dropping the newest incoming units beyond the
// deque's MaxFrontier share (max 0 = unbounded), and returns how many
// were accepted so the scheduler's pending counter stays exact.
func (d *wsDeque) pushAll(us []Unit) int {
	if len(us) == 0 {
		return 0
	}
	var dropped []Unit
	d.mu.Lock()
	if d.max > 0 {
		if room := d.max - d.q.len(); room < len(us) {
			if room < 0 {
				room = 0
			}
			us, dropped = us[:room], us[room:]
		}
	}
	d.q.pushAll(us)
	d.mu.Unlock()
	dropUnits(d.ctx, dropped)
	return len(us)
}

func (d *wsDeque) pop() (Unit, bool) {
	d.mu.Lock()
	u, ok := d.q.popTail()
	d.mu.Unlock()
	return u, ok
}

func (d *wsDeque) steal() (Unit, bool) {
	d.mu.Lock()
	u, ok := d.q.popHead()
	d.mu.Unlock()
	return u, ok
}

// dropUnits spills units that did not fit under the frontier cap:
// counted into the run's FrontierDropped tally, worlds recycled. Trace
// handles are released with a nil arena — drops run outside any worker's
// arena, so the nodes stay dead in their chunks, but the reference
// bookkeeping must still run or the dropped spine's shared prefix could
// never be reclaimed by the surviving branches.
func dropUnits(ctx *Ctx, us []Unit) {
	if len(us) == 0 {
		return
	}
	if ctx != nil {
		ctx.dropped.Add(int64(len(us)))
		for i := range us {
			ctx.release(us[i].World)
			releaseTrace(nil, us[i].trace)
		}
	}
	clearUnits(us)
}

// heapFrontier drains highest-Priority-first; ties break toward the
// earliest insertion, so best-first runs are deterministic for a fixed
// frontier history (Workers<=1). The spill cap evicts the lowest-priority
// pending unit (ties evict the newest), which for a best-first search is
// exactly the work it was least likely to reach within budget. One mutex
// guards the heap: all of a best-first run's workers pop and push it.
type heapFrontier struct {
	mu    sync.Mutex
	items []heapItem
	seq   uint64
	max   int
	ctx   *Ctx
}

type heapItem struct {
	u   Unit
	seq uint64
}

func (h *heapFrontier) less(i, j int) bool {
	if h.items[i].u.Priority != h.items[j].u.Priority {
		return h.items[i].u.Priority > h.items[j].u.Priority
	}
	return h.items[i].seq < h.items[j].seq
}

func (h *heapFrontier) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *heapFrontier) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.items) && h.less(l, best) {
			best = l
		}
		if r < len(h.items) && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

func (h *heapFrontier) pushAll(us []Unit) int {
	if len(us) == 0 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, u := range us {
		h.seq++
		h.items = append(h.items, heapItem{u: u, seq: h.seq})
		h.siftUp(len(h.items) - 1)
	}
	accepted := len(us)
	for h.max > 0 && len(h.items) > h.max {
		h.dropMin()
		accepted--
	}
	return accepted
}

// dropMin evicts the lowest-priority pending unit (ties: the newest).
// In a max-heap the minimum is among the leaves, so the scan is O(n/2);
// it only runs while the spill cap binds.
func (h *heapFrontier) dropMin() {
	n := len(h.items)
	min := n / 2
	for i := min + 1; i < n; i++ {
		if h.items[i].u.Priority < h.items[min].u.Priority ||
			(h.items[i].u.Priority == h.items[min].u.Priority && h.items[i].seq > h.items[min].seq) {
			min = i
		}
	}
	if h.ctx != nil {
		h.ctx.dropped.Add(1)
		h.ctx.release(h.items[min].u.World)
		releaseTrace(nil, h.items[min].u.trace)
	}
	last := n - 1
	h.items[min] = h.items[last]
	h.items[last] = heapItem{} // release the world for GC
	h.items = h.items[:last]
	if min < last {
		h.siftUp(min)
		h.siftDown(min)
	}
}

func (h *heapFrontier) pop() (Unit, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.items) == 0 {
		return Unit{}, false
	}
	top := h.items[0].u
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = heapItem{} // release the world for GC
	h.items = h.items[:last]
	h.siftDown(0)
	return top, true
}

// clearUnits zeroes a consumed unit slice so its worlds stay collectible
// even while the caller's backing array lives on.
func clearUnits(us []Unit) {
	clear(us)
}
