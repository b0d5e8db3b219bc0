package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Drain(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Drain(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.Drain(0)
	if at != Time(5*time.Second) {
		t.Fatalf("clock at event = %v, want 5s", at)
	}
	if e.Now() != Time(5*time.Second) {
		t.Fatalf("final clock = %v, want 5s", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.Drain(0)
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved backwards: %v", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	tm := e.Schedule(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before firing")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Drain(0)
	if fired {
		t.Fatal("canceled event fired")
	}
	if tm.Pending() {
		t.Fatal("canceled timer still pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	tm := e.Schedule(time.Millisecond, func() {})
	e.Drain(0)
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestRunUntilBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.Schedule(time.Second, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Second, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Second, func() { fired = append(fired, 3) })
	n := e.Run(Time(2 * time.Second))
	if n != 2 || len(fired) != 2 {
		t.Fatalf("Run executed %d events (%v), want 2 (inclusive boundary)", n, fired)
	}
	if e.Now() != Time(2*time.Second) {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	e.Drain(0)
	if len(fired) != 3 {
		t.Fatalf("remaining event not executed: %v", fired)
	}
}

func TestRunAdvancesIdleClock(t *testing.T) {
	e := NewEngine(1)
	e.Run(Time(10 * time.Second))
	if e.Now() != Time(10*time.Second) {
		t.Fatalf("idle Run should advance clock, got %v", e.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			e.Schedule(time.Millisecond, rec)
		}
	}
	e.Schedule(0, rec)
	e.Drain(0)
	if count != 5 {
		t.Fatalf("recursive scheduling executed %d, want 5", count)
	}
}

func TestDrainBudget(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	if n := e.Drain(10); n != 10 {
		t.Fatalf("Drain(10) executed %d", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		for i := 0; i < 50; i++ {
			d := time.Duration(e.Rand().Intn(1000)) * time.Microsecond
			e.Schedule(d, func() { out = append(out, int64(e.Now())) })
		}
		e.Drain(0)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("empty engine reports pending event")
	}
	tm := e.Schedule(time.Second, func() {})
	if at, ok := e.NextEventAt(); !ok || at != Time(time.Second) {
		t.Fatalf("NextEventAt = %v,%v", at, ok)
	}
	tm.Cancel()
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("canceled event still visible")
	}
}

func TestForkIndependence(t *testing.T) {
	e := NewEngine(7)
	r1 := e.Fork()
	r2 := e.Fork()
	a, b := r1.Int63(), r2.Int63()
	if a == b {
		t.Fatal("forked RNGs produced identical first values")
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

func TestPostNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Post(nil) did not panic")
		}
	}()
	NewEngine(1).Post(0, nil)
}

// Property: events always fire in nondecreasing time order, and FIFO within
// an instant, regardless of the scheduling pattern.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16, seed int64) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(seed)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			e.Schedule(time.Duration(d)*time.Microsecond, func() {
				fired = append(fired, rec{e.Now(), i})
			})
		}
		e.Drain(0)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Run(until) never executes an event later than until and never
// leaves an executable event at or before until.
func TestRunBoundaryProperty(t *testing.T) {
	f := func(delays []uint16, cut uint16) bool {
		e := NewEngine(1)
		until := Time(time.Duration(cut) * time.Microsecond)
		var maxFired Time = -1
		for _, d := range delays {
			at := Time(time.Duration(d) * time.Microsecond)
			e.ScheduleAt(at, func() {
				if e.Now() > maxFired {
					maxFired = e.Now()
				}
			})
		}
		e.Run(until)
		if maxFired > until {
			return false
		}
		if at, ok := e.NextEventAt(); ok && at <= until {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndStep(b *testing.B) {
	e := NewEngine(1)
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(r.Intn(1000))*time.Microsecond, func() {})
		e.Step()
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Millisecond, func() {})
		e.Step()
	}
}

// refQueue is the reference the engine's queue is checked against: a
// slice kept sorted by (at, seq), whose canceled entries stay queued (and
// counted by len) until they reach the front, as the engine's do.
type refQueue struct {
	now    Time
	seq    uint64
	q      []refEntry
	live   map[int]bool // scheduled, neither fired nor canceled
	posted map[int]bool // queued by Post: no handle, never canceled
}

type refEntry struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

func (r *refQueue) schedule(at Time, id int) {
	at = max(at, r.now)
	i := sort.Search(len(r.q), func(i int) bool { return r.q[i].at > at })
	r.q = slices.Insert(r.q, i, refEntry{at: at, seq: r.seq, id: id})
	r.seq++
	r.live[id] = true
}

func (r *refQueue) cancel(id int) bool {
	if !r.live[id] || r.posted[id] {
		return false
	}
	r.live[id] = false
	for i := range r.q {
		if r.q[i].id == id {
			r.q[i].canceled = true
		}
	}
	return true
}

// next drops canceled entries at the front and returns the first live one.
func (r *refQueue) next() (Time, bool) {
	for len(r.q) > 0 && r.q[0].canceled {
		r.q = r.q[1:]
	}
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}

// pop removes the next live entry, advancing the clock to it.
func (r *refQueue) pop() (int, bool) {
	if _, ok := r.next(); !ok {
		return 0, false
	}
	x := r.q[0]
	r.q = r.q[1:]
	r.now = x.at
	r.live[x.id] = false
	return x.id, true
}

// action is what the callback of one event does when it fires: schedule
// a child after delay, cancel an event created no later, both, or neither.
type action struct {
	child  bool
	delay  Duration
	cancel int // id to cancel, or -1
}

// posted is a handle-free event: it fires the harness callback of its id.
type posted struct {
	h  *queueHarness
	id int
}

func (p *posted) Fire() { p.h.fireE(p.id) }

// queueHarness drives an Engine and a refQueue with the same operations.
// Both sides number events in creation order on counters of their own, so
// a callback that schedules a child names it the same on both sides as
// long as they fire in the same order; every observation goes into the
// side's log, and the logs must match after every operation.
type queueHarness struct {
	e          *Engine
	timers     []*Timer // nil for posted events
	ref        refQueue
	refIDs     int
	acts       []action
	logE, logR []string
}

func (h *queueHarness) act(id int) action {
	if id < len(h.acts) {
		return h.acts[id]
	}
	return action{cancel: -1}
}

func (h *queueHarness) scheduleE(at Time, relative bool, d Duration) {
	id := len(h.timers)
	fn := func() { h.fireE(id) }
	if relative {
		h.timers = append(h.timers, h.e.Schedule(d, fn))
	} else {
		h.timers = append(h.timers, h.e.ScheduleAt(at, fn))
	}
}

func (h *queueHarness) postE(at Time) {
	id := len(h.timers)
	h.timers = append(h.timers, nil)
	h.e.Post(at, &posted{h, id})
}

func (h *queueHarness) fireE(id int) {
	h.logE = append(h.logE, fmt.Sprintf("fire %d at %v", id, h.e.Now()))
	a := h.act(id)
	if a.child {
		h.scheduleE(0, true, a.delay)
	}
	if a.cancel >= 0 {
		h.logE = append(h.logE, fmt.Sprintf("cancel %d: %v", a.cancel, h.timers[a.cancel].Cancel()))
	}
}

func (h *queueHarness) scheduleR(at Time) {
	h.ref.schedule(at, h.refIDs)
	h.refIDs++
}

func (h *queueHarness) postR(at Time) {
	h.ref.posted[h.refIDs] = true
	h.scheduleR(at)
}

func (h *queueHarness) stepR() bool {
	id, ok := h.ref.pop()
	if !ok {
		return false
	}
	h.logR = append(h.logR, fmt.Sprintf("fire %d at %v", id, h.ref.now))
	a := h.act(id)
	if a.child {
		h.scheduleR(h.ref.now.Add(max(a.delay, 0)))
	}
	if a.cancel >= 0 {
		h.logR = append(h.logR, fmt.Sprintf("cancel %d: %v", a.cancel, h.ref.cancel(a.cancel)))
	}
	return true
}

// TestQueueMatchesReference runs random interleavings of Schedule,
// ScheduleAt and Post (past times included), Cancel and Pending (before
// and after firing; a posted event has no handle, so both read false),
// Step, Run and NextEventAt, with callbacks that schedule and cancel, and
// checks everything the engine reports against refQueue.
func TestQueueMatchesReference(t *testing.T) {
	const ms = Duration(time.Millisecond)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{e: NewEngine(seed), ref: refQueue{live: map[int]bool{}, posted: map[int]bool{}}}
		h.acts = make([]action, 1500)
		for i := range h.acts {
			a := action{cancel: -1}
			if k := rng.Intn(20); k < 5 || k >= 17 {
				a.child, a.delay = true, Duration(rng.Intn(8)-1)*ms
			}
			if k := rng.Intn(20); k < 4 {
				a.cancel = rng.Intn(i + 1) // itself included: too late, it is firing
			}
			h.acts[i] = a
		}
		for op := 0; op < 600; op++ {
			var what string
			switch k := rng.Intn(11); {
			case k < 3:
				d := Duration(rng.Intn(12)-2) * ms
				what = fmt.Sprintf("Schedule(%v)", d)
				h.scheduleE(0, true, d)
				h.scheduleR(h.ref.now.Add(max(d, 0)))
			case k < 5:
				at := h.e.Now().Add(Duration(rng.Intn(14)-4) * ms)
				what = fmt.Sprintf("ScheduleAt(%v)", at)
				h.scheduleE(at, false, 0)
				h.scheduleR(at)
			case k == 5 && len(h.timers) > 0:
				id := rng.Intn(len(h.timers))
				what = fmt.Sprintf("Cancel(%d)", id)
				h.logE = append(h.logE, fmt.Sprint(h.timers[id].Cancel()))
				h.logR = append(h.logR, fmt.Sprint(h.ref.cancel(id)))
			case k == 6 && len(h.timers) > 0:
				id := rng.Intn(len(h.timers))
				what = fmt.Sprintf("Pending(%d)", id)
				h.logE = append(h.logE, fmt.Sprint(h.timers[id].Pending()))
				h.logR = append(h.logR, fmt.Sprint(h.ref.live[id] && !h.ref.posted[id]))
			case k == 7:
				what = "Step"
				h.logE = append(h.logE, fmt.Sprint(h.e.Step()))
				h.logR = append(h.logR, fmt.Sprint(h.stepR()))
			case k == 8:
				until := h.e.Now().Add(Duration(rng.Intn(6)) * ms)
				what = fmt.Sprintf("Run(%v)", until)
				h.logE = append(h.logE, fmt.Sprint(h.e.Run(until)))
				n := 0
				for at, ok := h.ref.next(); ok && at <= until; at, ok = h.ref.next() {
					h.stepR()
					n++
				}
				h.ref.now = max(h.ref.now, until)
				h.logR = append(h.logR, fmt.Sprint(n))
			case k == 9:
				at := h.e.Now().Add(Duration(rng.Intn(14)-4) * ms)
				what = fmt.Sprintf("Post(%v)", at)
				h.postE(at)
				h.postR(at)
			default:
				what = "NextEventAt"
				at, ok := h.e.NextEventAt()
				h.logE = append(h.logE, fmt.Sprint(at, ok))
				at, ok = h.ref.next()
				h.logR = append(h.logR, fmt.Sprint(at, ok))
			}
			h.logE = append(h.logE, fmt.Sprintf("now %v len %d", h.e.Now(), h.e.Len()))
			h.logR = append(h.logR, fmt.Sprintf("now %v len %d", h.ref.now, len(h.ref.q)))
			if !slices.Equal(h.logE, h.logR) {
				i := 0
				for i < min(len(h.logE), len(h.logR)) && h.logE[i] == h.logR[i] {
					i++
				}
				t.Fatalf("seed %d op %d %s: engine %q, reference %q", seed, op, what, h.logE[i:], h.logR[i:])
			}
			h.logE, h.logR = h.logE[:0], h.logR[:0]
		}
	}
}

// Cost-shape gate (make bench-alloc): the timer is the queued event, so a
// steady-state Schedule+Step allocates the one object Schedule returns.
func TestScheduleStepAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		e.Schedule(time.Duration(i%64)*time.Millisecond, fn)
		e.Step()
	})
	if allocs != 1 {
		t.Fatalf("Schedule+Step allocates %v objects, want 1", allocs)
	}
}

// A queue drained from a burst gives back its array and keeps popping in
// (at, seq) order across the copies.
func TestDrainedQueueShrinks(t *testing.T) {
	e := NewEngine(1)
	r := rand.New(rand.NewSource(3))
	type fired struct {
		at Time
		id int
	}
	var got []fired
	const n = 20000
	for id := 0; id < n; id++ {
		e.ScheduleAt(Time(r.Intn(500))*Time(time.Millisecond), func() { got = append(got, fired{e.Now(), id}) })
	}
	peak := cap(e.queue)
	e.Drain(n - 100)
	if c := cap(e.queue); c > shrinkBelow {
		t.Fatalf("100 queued events hold an array of %d entries (peak %d), want <= %d", c, peak, shrinkBelow)
	}
	e.Drain(0)
	if len(got) != n {
		t.Fatalf("%d events fired, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if a, b := got[i-1], got[i]; b.at < a.at || (b.at == a.at && b.id < a.id) {
			t.Fatalf("event %d (%v) fired after %d (%v)", b.id, b.at, a.id, a.at)
		}
	}
}

// counter is a handle-free event that counts its firings.
type counter int

func (c *counter) Fire() { *c++ }

// Cost-shape gate (make bench-alloc): the queue entry holds a posted
// event as it is, so a steady-state Post+Step allocates nothing.
func TestPostStepAllocs(t *testing.T) {
	e := NewEngine(1)
	var c counter
	for i := 0; i < 64; i++ {
		e.Post(Time(i)*Time(time.Millisecond), &c)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		e.Post(e.Now().Add(time.Duration(i%64)*time.Millisecond), &c)
		e.Step()
	})
	if c != 1001 {
		t.Fatalf("%d events fired, want 1001", c)
	}
	if allocs != 0 {
		t.Fatalf("Post+Step allocates %v objects, want 0", allocs)
	}
}

// BenchmarkDeepQueue mirrors paxos_baseline's queue: an open-loop
// generator's 20 000 far-future events wait at the back while a few dozen
// near-future ones churn at the front.
func BenchmarkDeepQueue(b *testing.B) {
	e := NewEngine(1)
	r := rand.New(rand.NewSource(2))
	fn := func() {}
	for i := 0; i < 20000; i++ {
		e.ScheduleAt(Time(1e6*time.Second)+Time(i)*Time(time.Millisecond), fn)
	}
	for i := 0; i < 64; i++ {
		e.Schedule(time.Duration(r.Intn(1000))*time.Microsecond, fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(r.Intn(1000))*time.Microsecond, fn)
		e.Step()
	}
}
