package explore

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Ctx is the state one Explore run shares across its workers: the frozen
// start world, the global handler-execution budget, the cross-worker
// digest deduplication set of a run that keeps one, and the action-label
// intern table.
type Ctx struct {
	runState
	// Everything below is scratch that outlives the run: a Ctx comes from,
	// and recycle returns it to, a process-wide free list like
	// sharedWorldPool — the runtime calls Explore once per decision, and a
	// lookahead of four states must not pay for a fresh context, seen set
	// and arena chunks each time. recycle says what each piece keeps; none
	// of it is sized by the state budget.

	// names interns timer names so lazy trace nodes carry integers.
	names *nameTable
	// rootArena allocates the root frontier's trace nodes. Roots are
	// built single-threaded before the workers start, and the nodes are
	// released — possibly into another arena's free list — by whichever
	// worker exhausts the branch. arenas[i] and succ[i] are worker i's
	// trace arena and Expand buffer, lent to its report shard for the run.
	rootArena *pathArena
	arenas    []*pathArena
	succ      [][]Unit
	shards    []*Report
	// rootBuf backs the root frontier (rootUnits).
	rootBuf []Unit
	// plain is the one-worker run's seen set.
	plain plainSeen
	// deques are the per-worker queues of a run.
	deques []wsDeque
}

// runState is the part of a Ctx that belongs to one run; recycle zeroes it
// whole.
type runState struct {
	x      *Explorer
	root   *World
	budget int
	count  atomic.Int64
	seen   seenSet
	// dropped counts frontier units discarded by the MaxFrontier cap.
	dropped atomic.Int64
	// deadline, when non-zero, wall-clock-bounds the run (Explorer.Deadline).
	// polls rations the time.Now calls; expired latches the verdict so the
	// clock is read at most once per poll window across all workers.
	deadline time.Time
	polls    atomic.Int64
	expired  atomic.Bool
	// Scheduler state (Explorer.run): pending counts queued plus
	// in-expansion units; active is the autoscaler's worker-count target.
	pending atomic.Int64
	active  atomic.Int64
	// stealMisses and workerHigh feed Report.StealMisses and
	// Report.WorkerHighWater: sweeps that found every queue empty, and
	// the high-water mark of active.
	stealMisses atomic.Int64
	workerHigh  atomic.Int64
}

// ctxPool is the free list of run contexts.
var ctxPool sync.Pool

// newCtx returns the shared state of one run of x from w. Explore picks
// the seen set once it knows how many workers actually run.
func newCtx(x *Explorer, w *World, budget int) *Ctx {
	c, _ := ctxPool.Get().(*Ctx)
	if c == nil {
		c = &Ctx{names: &nameTable{}, rootArena: &pathArena{}}
	}
	c.x, c.root, c.budget, c.deadline = x, w, budget, x.Deadline
	return c
}

// newShards returns one empty report per worker, each lent that worker's
// arena and successor buffer; returnShards takes the loans back, so the
// reports leave the run as plain data.
func (c *Ctx) newShards(n int) []*Report {
	for len(c.arenas) < n {
		c.arenas = append(c.arenas, &pathArena{})
		c.succ = append(c.succ, nil)
	}
	c.shards = slices.Grow(c.shards[:0], n)[:n]
	for i := range c.shards {
		r := newReport()
		r.arena, r.succ = c.arenas[i], c.succ[i]
		c.shards[i] = &r
	}
	return c.shards
}

// newReport returns an empty report, its score extremes ready for the
// first state.
func newReport() Report {
	return Report{MinScore: math.Inf(1), MaxScore: math.Inf(-1)}
}

func (c *Ctx) returnShards() {
	for i, r := range c.shards {
		c.succ[i] = r.succ
		r.arena, r.succ = nil, nil
	}
}

// Retention bounds of a pooled Ctx: what a steering-sized lookahead needs
// is kept, what only a large run grew is left to the garbage collector, so
// the free list holds a few kilobytes whatever ran before.
const (
	keepUnits = 16  // capacity of a unit buffer (roots, successors, a deque)
	keepSeen  = 256 // entries of the one-worker seen set
	keepNames = 64  // interned timer names
)

// recycle returns the context to the free list. Every worker of the run
// has returned and the shards' loans are back (returnShards); what is kept
// holds no reference into the run.
func (c *Ctx) recycle() {
	c.runState = runState{}
	c.names.trim(keepNames)
	c.rootArena.reset()
	for _, a := range c.arenas {
		a.reset()
	}
	for i := range c.succ {
		c.succ[i] = emptyUnits(c.succ[i])
	}
	c.rootBuf = emptyUnits(c.rootBuf)
	clear(c.shards)
	for i := range c.deques {
		d := &c.deques[i]
		d.ctx, d.q = nil, unitQueue{buf: emptyUnits(d.q.buf)}
	}
	c.deques = c.deques[:0]
	if len(c.plain) > keepSeen {
		c.plain = nil
	}
	clear(c.plain)
	ctxPool.Put(c)
}

// emptyUnits returns a unit buffer emptied for reuse — its slots zeroed,
// since a Unit pins a world — or nil when it grew past keepUnits.
func emptyUnits(s []Unit) []Unit {
	if cap(s) > keepUnits {
		return nil
	}
	return clearCap(s)
}

// release returns a dead world's shell and exclusively owned containers
// to the free-list. The world must be a fork whose subtree is exhausted:
// after release the *World and everything still marked owned may be
// handed to the next fork. Worlds pinned by a recorded violation witness
// are left to the garbage collector.
func (c *Ctx) release(w *World) {
	if w == nil || w.pinned {
		return
	}
	sharedWorldPool.put(w)
}

// releaseExhausted is release for a world whose every fork is already
// dead and none of them pinned: the containers it allocated and then
// shared with those forks (sealed marks — see World.unseal) are
// reclaimed along with the exclusively owned ones. The chain engine
// qualifies — a frame's forks all die inside the recursive call, and a
// violation anywhere in the subtree (the only source of pinned worlds)
// is visible as report growth — while frontier strategies do not: their
// successors outlive the expanded world.
func (c *Ctx) releaseExhausted(w *World) { w.Retire() }

// releaseSubtree recycles a chain fork whose recursive expansion just
// returned. Every descendant fork died inside the call, so unless the
// subtree recorded a violation — the one event that pins worlds, which
// may still be sharing this fork's sealed containers — the sealed
// containers are reclaimed too. preViolations is the worker report's
// violation count from just before the recursion; violation counts only
// grow, so equality proves the subtree pinned nothing.
func (c *Ctx) releaseSubtree(w *World, r *Report, preViolations int) {
	if len(r.Violations) == preViolations {
		c.releaseExhausted(w)
	} else {
		c.release(w)
	}
}

// Root returns the frozen start world of the run. Strategies may fork it
// (copy-on-write) but must never mutate it.
func (c *Ctx) Root() *World { return c.root }

// Exhausted reports whether the run's state budget is spent or its
// wall-clock deadline has passed. The deadline is polled once every 256
// calls, so overshoot past it is bounded by a few hundred cheap checks.
func (c *Ctx) Exhausted() bool {
	if c.count.Load() >= int64(c.budget) {
		return true
	}
	if c.deadline.IsZero() {
		return false
	}
	if c.expired.Load() {
		return true
	}
	if c.polls.Add(1)&255 == 0 && time.Now().After(c.deadline) { //crystalvet:wallclock cooperative deadline poll; truncates the search, never alters a branch outcome
		c.expired.Store(true)
		return true
	}
	return false
}

// revisit records w, reached with faults fault transitions spent on its
// path, in the run's seen set and reports whether it was there already —
// the caller then prunes the duplicate subtree. A run without a seen set
// (a fault-free chain) never revisits and never digests.
func (c *Ctx) revisit(w *World, faults int) bool {
	return c.seen != nil && c.seen.visit(c.x.visitKey(w, faults))
}

// Autoscaler tuning. The control law is a hysteresis pair: shrink needs
// autoMissStreak consecutive empty sweeps from the highest-indexed active
// worker (work is scarce), grow needs the pending counter to exceed
// autoGrowFactor times the active set (work is abundant) — the two
// conditions cannot hold at once, so the set cannot flap. Parked workers
// poll on a doubling backoff between autoParkMin and autoParkMax instead
// of burning a core each on the 20µs idle spin.
const (
	autoMissStreak = 4
	autoGrowFactor = 2
	autoParkMin    = 50 * time.Microsecond
	autoParkMax    = 500 * time.Microsecond
)

// run is the scheduler: it seeds the run's queues with the root units and
// drains them with one worker per report shard. Each worker owns a deque
// and steals from the others'.
//
// Roots are dealt round-robin and then flipped, so every owner (who pops
// its newest unit) takes its roots in root order. With one worker the
// loop runs on the calling goroutine and the whole run is deterministic:
// a depth-first drain in root order.
func (x *Explorer) run(ctx *Ctx, strat Strategy, units []Unit, reports []*Report) {
	n := len(reports)
	if cap(ctx.deques) < n {
		ctx.deques = make([]wsDeque, n)
	}
	ctx.deques = ctx.deques[:n]
	// Each deque gets an equal share of the global cap, rounded up (zero
	// stays zero: unbounded), and roots go through pushAll so the cap binds
	// on the seed frontier too.
	share := (x.MaxFrontier + n - 1) / n
	for i := range ctx.deques {
		d := &ctx.deques[i]
		d.max, d.ctx = share, ctx
		d.q.buf = slices.Grow(d.q.buf, (len(units)+n-1)/n)
	}
	accepted := 0
	for i := range units {
		accepted += ctx.deques[i%n].pushAll(units[i : i+1])
	}
	for i := range ctx.deques {
		slices.Reverse(ctx.deques[i].q.buf)
	}
	clearUnits(units)
	ctx.pending.Store(int64(accepted))
	// The active-worker target starts at the root frontier's width (no
	// point spinning eight thieves over three chains) and moves inside
	// [1, n] from there.
	start := int64(min(max(accepted, 1), n))
	ctx.active.Store(start)
	ctx.workerHigh.Store(start)
	if n == 1 {
		x.work(ctx, strat, reports, 0)
		return
	}
	var wg sync.WaitGroup
	for wi := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.work(ctx, strat, reports, wi)
		}()
	}
	wg.Wait()
}

// work is worker wi's loop: pop the own deque or steal, expand, publish
// the successors to the own deque. `pending` counts queued plus
// in-expansion units, so an idle worker that finds every queue empty
// consults it: zero means the run is over, nonzero means in-flight
// expansions may still publish work, so it backs off and rescans. The hot
// path touches exactly one queue mutex per unit.
//
// A pool of more than one resizes itself mid-run: workers with index >=
// the atomic active target park (their deques stay stealable, so no unit
// is ever stranded), the highest-indexed active worker lowers the target
// after a streak of empty sweeps, and publishing a backlog raises it
// again. Worker 0 never parks and parked workers still poll the pending
// counter, so the termination argument — every worker observes pending
// == 0 — holds at any target. A lone worker never misses (its queue is
// empty only when pending is zero), so for it none of this runs.
func (x *Explorer) work(ctx *Ctx, strat Strategy, reports []*Report, wi int) {
	n, r, own := len(reports), reports[wi], &ctx.deques[wi]
	idle, missStreak := 0, 0
	parkSleep := autoParkMin
	for {
		if wi > 0 && int64(wi) >= ctx.active.Load() {
			// Parked: off the steal path entirely.
			if ctx.pending.Load() == 0 {
				return
			}
			time.Sleep(parkSleep)
			parkSleep = min(parkSleep*2, autoParkMax)
			continue
		}
		parkSleep = autoParkMin
		u, ok := own.pop()
		for off := 1; !ok && off < n; off++ {
			u, ok = ctx.deques[(wi+off)%n].steal()
		}
		if !ok {
			if ctx.pending.Load() == 0 {
				return
			}
			ctx.stealMisses.Add(1)
			if missStreak++; missStreak >= autoMissStreak {
				// Persistent scarcity: the highest-indexed active worker
				// bows out (and parks on the next pass).
				if cur := ctx.active.Load(); cur > 1 && int64(wi) == cur-1 {
					ctx.active.CompareAndSwap(cur, cur-1)
				}
				missStreak = 0
			}
			// Work is in expansion elsewhere and may fan out; yield, then
			// sleep once yielding has not produced anything.
			if idle++; idle < 8 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle, missStreak = 0, 0

		var succ []Unit
		if ctx.Exhausted() {
			r.Truncated = true
			ctx.release(u.World) // never expanded: recycle now
			releaseTrace(r.arena, u.trace)
		} else {
			succ = x.expand(ctx, strat, u, r)
		}
		// Publish successors before giving up this unit's pending slot,
		// so the counter never reads zero while work exists.
		accepted := own.pushAll(succ)
		p := ctx.pending.Add(int64(accepted) - 1)
		for accepted > 0 {
			// Abundance: published work outgrew the active set; raise the
			// target so a parked worker rejoins.
			cur := ctx.active.Load()
			if cur >= int64(n) || p <= autoGrowFactor*cur {
				break
			}
			if ctx.active.CompareAndSwap(cur, cur+1) {
				if hw := ctx.workerHigh.Load(); cur+1 > hw {
					ctx.workerHigh.CompareAndSwap(hw, cur+1)
				}
				break
			}
		}
	}
}

// merge folds a worker's report shard into r.
func (r *Report) merge(o *Report) {
	r.StatesExplored += o.StatesExplored
	r.FaultsInjected += o.FaultsInjected
	r.Panics += o.Panics
	if o.MaxDepth > r.MaxDepth {
		r.MaxDepth = o.MaxDepth
	}
	r.Violations = append(r.Violations, o.Violations...)
	r.mergeClasses(o)
	if o.MinScore < r.MinScore {
		r.MinScore = o.MinScore
	}
	if o.MaxScore > r.MaxScore {
		r.MaxScore = o.MaxScore
	}
	r.scoreSum += o.scoreSum
	r.scoreCount += o.scoreCount
	r.Truncated = r.Truncated || o.Truncated
	r.FrontierDropped += o.FrontierDropped
	// Elapsed is deliberately not merged: shards carry no stamp, and
	// Explore stamps the whole run's wall clock after the merge loop.
}
