package explore

import "sync"

// Frontier containers. The scheduler (scheduler.go) drains units out of
// per-worker deques (wsDeque; EXPERIMENTS.md E14 is why workers steal
// instead of sharing one locked queue). Consumed slots are zeroed: a Unit
// owns a forked *World, and a pointer left behind in a backing array would
// pin that world — services, timers, in-flight messages — for the rest of
// the run. The deques also honor the Explorer.MaxFrontier spill cap: when
// a deque's share binds, the newest incoming units are dropped, counted
// into the run's FrontierDropped tally, and their worlds recycled.

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
// were accepted so the scheduler's pending counter stays exact. Safe for
// concurrent use, as are pop and steal.
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

// clearUnits zeroes a consumed unit slice so its worlds stay collectible
// even while the caller's backing array lives on.
func clearUnits(us []Unit) {
	clear(us)
}
