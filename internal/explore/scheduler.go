package explore

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Ctx is the state one Explore run shares across its workers: the frozen
// start world, the global handler-execution budget, the cross-worker
// digest deduplication set, and the per-run action-label intern table.
type Ctx struct {
	x      *Explorer
	root   *World
	budget int
	count  atomic.Int64
	seen   seenSet
	// names interns timer names so lazy trace nodes carry integers.
	names *nameTable
	// rootArena allocates the root frontier's trace nodes. Roots are
	// built single-threaded before the workers start, and the nodes are
	// released — possibly into another arena's free list — by whichever
	// worker exhausts the branch.
	rootArena *pathArena
	// dropped counts frontier units discarded by the MaxFrontier cap.
	dropped atomic.Int64
	// deadline, when non-zero, wall-clock-bounds the run (Explorer.Deadline).
	// polls rations the time.Now calls; expired latches the verdict so the
	// clock is read at most once per poll window across all workers.
	deadline time.Time
	polls    atomic.Int64
	expired  atomic.Bool
	// stealMisses and workerHigh feed Report.StealMisses and
	// Report.WorkerHighWater: empty full-deque sweeps, and the stealing
	// scheduler's active-worker high-water mark (Explore seeds workerHigh
	// with the pool size for the non-stealing paths).
	stealMisses atomic.Int64
	workerHigh  atomic.Int64
}

// newCtx returns the shared state of one run of x from w. Explore picks
// the seen set once it knows how many workers actually run.
func newCtx(x *Explorer, w *World, budget int) *Ctx {
	return &Ctx{x: x, root: w, budget: budget, names: &nameTable{},
		rootArena: &pathArena{}, deadline: x.Deadline}
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
func (c *Ctx) releaseExhausted(w *World) {
	if w == nil || w.pinned {
		return
	}
	w.sealed = false
	sharedWorldPool.put(w)
}

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

// Visit records the digest of a reached state, reporting true when it was
// already recorded — the caller then prunes the duplicate subtree.
func (c *Ctx) Visit(d uint64) bool { return c.seen.visit(d) }

// runSequential drains fr on the calling goroutine, accumulating into a
// single report. With a FIFO frontier and the ChainDFS strategy this is
// step-for-step the original recursive engine; with a heap frontier it is
// the best-first loop of the Guided strategy.
func (x *Explorer) runSequential(ctx *Ctx, strat Strategy, fr frontier, r *Report) {
	for fr.len() > 0 {
		if ctx.Exhausted() {
			r.Truncated = true
			return
		}
		u, _ := fr.pop()
		fr.pushAll(x.expand(ctx, strat, u, r))
	}
}

// runShared drains one shared locked priority frontier with a pool of
// workers: the best-first scheduler, where a global priority order is the
// point and per-worker deques would defeat it. Each worker accumulates
// into its own report shard; `pending` counts queued plus in-expansion
// units, so the pool terminates exactly when the frontier is drained and
// no expansion is outstanding.
func (x *Explorer) runShared(ctx *Ctx, strat Strategy, fr *heapFrontier, reports []*Report) {
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		pending = fr.len()
		wg      sync.WaitGroup
	)
	for wi := range reports {
		r := reports[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for fr.len() == 0 && pending > 0 {
					cond.Wait()
				}
				u, ok := fr.pop()
				if !ok {
					mu.Unlock()
					return
				}
				mu.Unlock()

				var succ []Unit
				if ctx.Exhausted() {
					r.Truncated = true
					ctx.release(u.World) // never expanded: recycle now
					releaseTrace(r.arena, u.trace)
				} else {
					succ = x.expand(ctx, strat, u, r)
				}

				mu.Lock()
				accepted := fr.pushAll(succ)
				pending += accepted - 1
				if pending == 0 || accepted > 0 {
					cond.Broadcast()
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
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

func (d *wsDeque) push(u Unit) {
	d.mu.Lock()
	d.q.push(u)
	d.mu.Unlock()
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

func (d *wsDeque) popTail() (Unit, bool) {
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

// Autoscaler tuning (Explorer.AutoWorkers). The control law is a
// hysteresis pair: shrink needs autoMissStreak consecutive empty sweeps
// from the highest-indexed active worker (work is scarce), grow needs the
// pending counter to exceed autoGrowFactor times the active set (work is
// abundant) — the two conditions cannot hold at once, so the set cannot
// flap. Parked workers poll on a doubling backoff between autoParkMin and
// autoParkMax, replacing the 20µs idle spin that otherwise burns a core
// per surplus worker.
const (
	autoMissStreak = 4
	autoGrowFactor = 2
	autoParkMin    = 50 * time.Microsecond
	autoParkMax    = 500 * time.Microsecond
)

// runStealing drains the frontier with per-worker deques and work
// stealing. Roots are dealt round-robin so every worker starts local;
// successors go to the expanding worker's own deque. An idle worker scans
// the other deques for a steal, and only when every deque is empty does it
// consult the atomic pending counter: zero means the run is over, nonzero
// means in-flight expansions may still publish work, so it backs off and
// rescans. No global lock, no condition-variable broadcast storms — the
// hot path touches exactly one deque mutex per unit.
//
// Under AutoWorkers the pool additionally resizes itself mid-run: workers
// with index >= the atomic active target park (their deques stay
// stealable, so no unit is ever stranded), the highest-indexed active
// worker lowers the target after a streak of empty sweeps, and publishing
// a backlog raises it again. Worker 0 never parks and parked workers
// still poll the pending counter, so the termination argument — every
// worker observes pending == 0 — is unchanged.
func (x *Explorer) runStealing(ctx *Ctx, strat Strategy, units []Unit, reports []*Report) {
	n := len(reports)
	deques := make([]wsDeque, n)
	if x.MaxFrontier > 0 {
		// Each deque gets an equal share of the global cap (at least 1).
		share := (x.MaxFrontier + n - 1) / n
		for i := range deques {
			deques[i].max, deques[i].ctx = share, ctx
		}
	}
	// Roots go through pushAll so the MaxFrontier cap binds on the seed
	// frontier too, exactly as in the best-first and sequential paths.
	accepted := 0
	for i := range units {
		accepted += deques[i%n].pushAll(units[i : i+1])
	}
	clearUnits(units)
	var pending atomic.Int64
	pending.Store(int64(accepted))
	// active is the autoscaler's worker-count target. Fixed pools pin it
	// at n; autoscaled pools start at the root frontier's width (no point
	// spinning eight thieves over three chains) and move inside [1, n].
	var active atomic.Int64
	auto := x.AutoWorkers && n > 1
	if auto {
		start := int64(accepted)
		if start < 1 {
			start = 1
		}
		if start > int64(n) {
			start = int64(n)
		}
		active.Store(start)
		ctx.workerHigh.Store(start)
	} else {
		active.Store(int64(n))
	}
	var wg sync.WaitGroup
	for wi := 0; wi < n; wi++ {
		wi, r := wi, reports[wi]
		wg.Add(1)
		go func() {
			defer wg.Done()
			idle, missStreak := 0, 0
			parkSleep := autoParkMin
			for {
				if auto && wi > 0 && int64(wi) >= active.Load() {
					// Parked: off the steal path entirely. The deque stays
					// stealable and pending is still polled, so work cannot
					// strand and termination still reaches every worker.
					if pending.Load() == 0 {
						return
					}
					time.Sleep(parkSleep)
					if parkSleep *= 2; parkSleep > autoParkMax {
						parkSleep = autoParkMax
					}
					continue
				}
				parkSleep = autoParkMin
				u, ok := deques[wi].popTail()
				for off := 1; !ok && off < n; off++ {
					u, ok = deques[(wi+off)%n].steal()
				}
				if !ok {
					if pending.Load() == 0 {
						return
					}
					ctx.stealMisses.Add(1)
					if auto {
						if missStreak++; missStreak >= autoMissStreak {
							// Persistent scarcity: the highest-indexed active
							// worker bows out (and parks on the next pass).
							if cur := active.Load(); cur > 1 && int64(wi) == cur-1 {
								active.CompareAndSwap(cur, cur-1)
							}
							missStreak = 0
						}
					}
					// Work is in expansion elsewhere and may fan out; yield,
					// then sleep once yielding has not produced anything.
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
				// Publish successors before giving up this unit's pending
				// slot, so the counter never reads zero while work exists.
				accepted := deques[wi].pushAll(succ)
				p := pending.Add(int64(accepted) - 1)
				if auto && accepted > 0 {
					// Abundance: published work outgrew the active set;
					// raise the target so a parked worker rejoins.
					for {
						cur := active.Load()
						if cur >= int64(n) || p <= autoGrowFactor*cur {
							break
						}
						if active.CompareAndSwap(cur, cur+1) {
							if hw := ctx.workerHigh.Load(); cur+1 > hw {
								ctx.workerHigh.CompareAndSwap(hw, cur+1)
							}
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
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
