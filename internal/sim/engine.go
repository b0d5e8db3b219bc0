// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in scheduling order,
// which together with a seeded random number generator makes every run of a
// simulation fully reproducible from its seed.
//
// The engine is the substrate for the ModelNet-like network emulation the
// paper's evaluation runs on: all transports, timers, and protocol handlers
// in this repository execute inside an Engine.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a virtual timestamp, measured in nanoseconds since the start of
// the simulation.
type Time int64

// Duration re-exports time.Duration for call-site readability.
type Duration = time.Duration

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a value that fires itself when its time comes. Post queues one
// with no handle: it cannot be canceled, so nothing but the event itself
// is allocated (a transport message is the event that delivers it).
type Event interface{ Fire() }

// Timer is a scheduled callback and the handle that cancels it. Its
// callback is cleared when the event fires or is canceled, so a nil fn
// means the event will not fire (again) and the closure is not kept alive.
type Timer struct{ fn func() }

// Cancel prevents the timer from firing. It is safe to call on a timer that
// has already fired or been canceled; it reports whether the call prevented
// a pending firing.
func (t *Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.fn = nil
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool { return t != nil && t.fn != nil }

// Fire runs the callback of a pending timer and clears it, so the queued
// entry is then discarded like a canceled one. The engine calls it when
// the timer's time comes.
func (t *Timer) Fire() {
	if fn := t.fn; fn != nil {
		t.fn = nil
		fn()
	}
}

// live reports whether ev is still due to fire: a canceled or already
// fired timer is not. Every other event is live until it is popped.
func live(ev Event) bool {
	t, ok := ev.(*Timer)
	return !ok || t.fn != nil
}

// entry is one queued event: its key (at, seq) sits inline beside the
// event, so sifting compares contiguous memory and never dereferences an
// event. seq is unique, so (at, seq) is a total order and the pop order
// does not depend on the heap's shape.
type entry struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	ev  Event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// arity is the queue's fan-out. A 4-ary heap is half as deep as a binary
// one, and a node's four children span two cache lines at most. On
// BenchmarkDeepQueue, 2 measured within noise of 4 and 8 about 10 % slower.
const arity = 4

// push adds x to the min-heap q.
func push(q []entry, x entry) []entry {
	q = append(q, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !x.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = x
	return q
}

// shrinkBelow is the capacity under which a drained queue keeps its
// array: a small queue is not worth copying.
const shrinkBelow = 1024

// pop removes the least entry of the non-empty min-heap q. A queue that
// has drained to a quarter of its capacity moves to an array half the
// size, so a burst of events (an open-loop generator schedules every op up
// front) does not pin its peak array for the rest of the run; the copies
// cost O(1) per pop amortized.
func pop(q []entry) []entry {
	n := len(q) - 1
	x := q[n]
	q[n] = entry{} // the backing array must not pin the event
	q = q[:n]
	i := 0
	for {
		c := i*arity + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+arity && j < n; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&x) {
			break
		}
		q[i] = q[m]
		i = m
	}
	if n > 0 {
		q[i] = x
	}
	if c := cap(q); c > shrinkBelow && n < c/4 {
		q = append(make([]entry, 0, c/2), q...)
	}
	return q
}

// Engine is a single-threaded discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; all simulated activity runs on the
// goroutine that calls Run.
type Engine struct {
	now   Time
	seq   uint64
	queue []entry // 4-ary min-heap on (at, seq)
	rng   *rand.Rand
	seed  int64
	steps uint64
}

// NewEngine returns an engine whose randomness derives from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Rand returns the engine's deterministic random number generator.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fork returns a new RNG seeded from the engine's RNG, for components that
// need an independent deterministic randomness stream.
func (e *Engine) Fork() *rand.Rand { return rand.New(rand.NewSource(e.rng.Int63())) }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero. It returns a cancellable handle.
func (e *Engine) Schedule(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to the current instant.
func (e *Engine) ScheduleAt(at Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: Schedule with nil function")
	}
	t := &Timer{fn: fn}
	e.Post(at, t)
	return t
}

// Post queues ev to fire at absolute virtual time at. Times in the past
// are clamped to the current instant. There is no handle: ev cannot be
// canceled, and ev itself is all the engine keeps.
func (e *Engine) Post(at Time, ev Event) {
	if ev == nil {
		panic("sim: Post with nil event")
	}
	if at < e.now {
		at = e.now
	}
	e.queue = push(e.queue, entry{at: at, seq: e.seq, ev: ev})
	e.seq++
}

// Len returns the number of events currently queued (including canceled
// events not yet discarded).
func (e *Engine) Len() int { return len(e.queue) }

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		at, ev := e.queue[0].at, e.queue[0].ev
		e.queue = pop(e.queue)
		if !live(ev) {
			continue // canceled
		}
		e.now = at
		e.steps++
		ev.Fire()
		return true
	}
	return false
}

// Run executes events until the queue drains or the clock would pass until.
// It returns the number of events executed. Events scheduled exactly at
// until are executed.
func (e *Engine) Run(until Time) int {
	n := 0
	for {
		at, ok := e.NextEventAt()
		if !ok || at > until {
			break
		}
		e.Step()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// RunFor executes events for d of virtual time from the current instant.
func (e *Engine) RunFor(d Duration) int { return e.Run(e.now.Add(d)) }

// Drain executes events until the queue is empty or maxEvents have run.
// It returns the number of events executed. maxEvents <= 0 means unlimited
// (bounded only by queue exhaustion).
func (e *Engine) Drain(maxEvents int) int {
	n := 0
	for e.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// NextEventAt returns the timestamp of the next pending event and true, or
// zero and false if the queue is empty. Canceled events at the front are
// discarded on the way.
func (e *Engine) NextEventAt() (Time, bool) {
	for len(e.queue) > 0 {
		if live(e.queue[0].ev) {
			return e.queue[0].at, true
		}
		e.queue = pop(e.queue)
	}
	return 0, false
}

// String summarizes engine state for debugging.
func (e *Engine) String() string {
	return fmt.Sprintf("sim.Engine{now=%v queued=%d steps=%d seed=%d}", e.now, len(e.queue), e.steps, e.seed)
}
