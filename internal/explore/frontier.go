package explore

// Frontier containers. The scheduler drains units out of one of three
// shapes: a FIFO queue (the sequential engine's order), a priority heap
// (best-first strategies), or a set of per-worker deques (the
// work-stealing pool; EXPERIMENTS.md E14 is why parallel FIFO runs steal
// instead of sharing one locked queue). All of them zero
// consumed slots: a Unit owns a forked *World, and a pointer left behind
// in a backing array would pin that world — services, timers, in-flight
// messages — for the rest of the run. All of them also honor the
// Explorer.MaxFrontier spill cap: when the cap binds, the lowest-priority
// pending unit is dropped (for FIFO order, the newest — deepest — one),
// counted into the run's FrontierDropped tally, and its world recycled.

// unitQueue is an unsynchronized double-ended unit buffer: pushes append
// at the tail, pops take either end. buf[head:] are the live entries.
type unitQueue struct {
	buf  []Unit
	head int
}

func (q *unitQueue) len() int { return len(q.buf) - q.head }

func (q *unitQueue) push(u Unit) { q.buf = append(q.buf, u) }

func (q *unitQueue) pushAll(us []Unit) {
	if len(us) > 0 {
		q.buf = append(q.buf, us...)
	}
}

// popHead takes the oldest entry (FIFO). The vacated slot is zeroed and
// the dead prefix compacted away once it dominates the buffer, so consumed
// units never pin their worlds.
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

// popTail takes the newest entry (LIFO), zeroing the vacated slot.
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

// frontier is the scheduler's view of a pending-unit container. pop
// returns the container's next unit by its own discipline: FIFO for
// fifoFrontier, highest priority for heapFrontier. pushAll returns how
// many of the offered units were actually enqueued — the spill cap may
// drop the rest — so schedulers can keep exact pending counts.
type frontier interface {
	len() int
	pushAll(us []Unit) int
	pop() (Unit, bool)
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

// fifoFrontier drains oldest-first — the original engine's order. The
// spill cap drops incoming (newest, hence deepest) units.
type fifoFrontier struct {
	unitQueue
	max int
	ctx *Ctx
}

func newFIFOFrontier(units []Unit, ctx *Ctx) *fifoFrontier {
	f := &fifoFrontier{}
	if ctx != nil {
		f.max, f.ctx = ctx.x.MaxFrontier, ctx
	}
	f.pushAll(units)
	clearUnits(units)
	return f
}

func (f *fifoFrontier) pushAll(us []Unit) int {
	if f.max > 0 {
		if room := f.max - f.unitQueue.len(); room < len(us) {
			if room < 0 {
				room = 0
			}
			dropUnits(f.ctx, us[room:])
			us = us[:room]
		}
	}
	f.unitQueue.pushAll(us)
	return len(us)
}

func (f *fifoFrontier) pop() (Unit, bool) { return f.popHead() }

// heapFrontier drains highest-Priority-first; ties break toward the
// earliest insertion, so best-first runs are deterministic for a fixed
// frontier history (Workers<=1). The spill cap evicts the lowest-priority
// pending unit (ties evict the newest), which for a best-first search is
// exactly the work it was least likely to reach within budget.
type heapFrontier struct {
	items []heapItem
	seq   uint64
	max   int
	ctx   *Ctx
}

type heapItem struct {
	u   Unit
	seq uint64
}

func newHeapFrontier(units []Unit, ctx *Ctx) *heapFrontier {
	h := &heapFrontier{}
	if ctx != nil {
		h.max, h.ctx = ctx.x.MaxFrontier, ctx
	}
	h.pushAll(units)
	clearUnits(units)
	return h
}

func (h *heapFrontier) len() int { return len(h.items) }

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
