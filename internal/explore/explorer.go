package explore

import (
	"fmt"
	"time"

	"crystalchoice/internal/sm"
)

// Property is a safety property over global states (paper §3.2): Check
// returns true when the property holds. Violations found during
// exploration are reported and, in the live runtime, steered away from.
type Property struct {
	Name  string
	Check func(w *World) bool
	// Step, when set, is Check's incremental form (DESIGN.md §2.4.2): given
	// that Check held on a world that differs from w only in node services
	// — the engine calls Step once per differing node, prev being the
	// frozen service that node held there — the calls together return what
	// Check(w) would. Step may read w's services and down flags and
	// nothing else of it (not the in-flight set, timers or partitions:
	// those change without a call; a down flip makes the engine fall back
	// to Check). The engine uses it when it knows the delta exactly and
	// falls back to Check when it does not; a property without a Step is
	// checked from scratch at every state, as before.
	Step func(w *World, id NodeID, prev sm.Service) bool
}

// Objective scores a world; the runtime resolves choices to maximize it
// (paper §3.2). Implementations must be pure.
type Objective interface {
	Name() string
	Score(w *World) float64
}

// ObjectiveFunc adapts a function to the Objective interface.
type ObjectiveFunc struct {
	ObjectiveName string
	Fn            func(w *World) float64
}

// Name returns the objective's name.
func (o ObjectiveFunc) Name() string { return o.ObjectiveName }

// Score evaluates the objective on w.
func (o ObjectiveFunc) Score(w *World) float64 { return o.Fn(w) }

// Violation records a safety property violated in a predicted future.
type Violation struct {
	Property string
	// Trace is the chain of events from the start world to the violation.
	Trace []string
	Depth int
}

func (v Violation) String() string {
	return fmt.Sprintf("violation of %s at depth %d via %v", v.Property, v.Depth, v.Trace)
}

// PanicProperty names the synthetic property a contained worker panic is
// recorded under: a panicking service handler or invariant inside an
// exploration branch becomes a PanicViolation (trace reconstructed up to
// the panicking step, panic value appended) instead of killing the
// process. See Explorer.ContainPanics.
const PanicProperty = "explore.panic"

// Report summarizes one exploration.
type Report struct {
	StatesExplored int
	MaxDepth       int
	// FaultsInjected counts the fault transitions (crash, recover, reset,
	// partition, heal) executed across all explored branches.
	FaultsInjected int
	// Panics counts worker panics contained into PanicProperty violations
	// (each abandons the branch it struck).
	Panics     int
	Violations []Violation
	// MinScore, MeanScore and MaxScore aggregate the objective over every
	// explored state (not just leaves), so transient bad states count.
	MinScore, MeanScore, MaxScore float64
	scoreSum                      float64
	scoreCount                    int
	Truncated                     bool // budget exhausted before frontier
	// FrontierDropped counts pending units discarded by the MaxFrontier
	// spill cap; nonzero implies Truncated.
	FrontierDropped int
	Elapsed         time.Duration
	// WorkerHighWater is the largest number of concurrently unparked
	// workers the run used — the autoscaler's high-water mark, at most
	// the pool that actually ran (1 for a one-worker run). StealMisses
	// counts scans that swept every queue and found nothing — the
	// contention signal the autoscaler shrinks on. Both are scheduler
	// observability, stamped after the merge like Elapsed:
	// timing-dependent, so determinism comparisons must ignore them.
	WorkerHighWater int
	StealMisses     int64

	// classes canonicalizes Violations at record time: raw violations
	// dedup by (property, canonical-trace signature), each class keeping
	// a count and its shortest witness. See ViolationClasses.
	classes map[classKey]*ViolationClass

	// Per-worker run scratch, on loan from the run's Ctx and nil'd before
	// Explore returns so reports stay plain data (tests compare them with
	// reflect.DeepEqual). arena allocates this worker's trace nodes; succ
	// is Expand's reusable successor buffer, safe because the deques copy
	// pushed units out of it before the worker's next expansion.
	arena *pathArena
	succ  []Unit
}

// Safe reports whether no violations were predicted.
func (r *Report) Safe() bool { return len(r.Violations) == 0 }

// Explorer runs consequence prediction: depth-bounded exploration of
// causally related event chains (paper §2). Rather than interleaving all
// nodes' actions, it starts one chain per enabled action and follows each
// chain's consequences — the messages the previous step produced — which is
// what lets CrystalBall look several levels into the future quickly.
//
// The engine is split into three layers: a Strategy decides the traversal
// (ChainDFS, the default, preserves the causal-chain semantics; BFS trades
// it for scenario diversity), one scheduler (run) drains the strategy's
// frontier across Workers workers with per-worker report shards and, when
// the run can revisit a state, a shared digest set — a one-worker chain
// run needs neither and runs its roots inline — and worlds fork
// copy-on-write so branching costs pointer copies instead of deep clones.
// An Explorer runs one Explore at a time.
type Explorer struct {
	// Workers is the ceiling of the scheduler's pool. Values <= 1 run on
	// the calling goroutine, deterministically: a ChainDFS run expands its
	// roots in root order, which reproduces the original engine's reports
	// byte for byte, and any other strategy's units drain newest-first
	// from one deque (roots in root order). A larger pool sizes its active
	// set to the work it finds: a worker whose steal scans keep missing
	// parks itself (sleeping, stealable deque left behind) and rejoins when
	// published work outgrows the active set; worker 0 never parks, so
	// termination and exactly-once expansion do not depend on the
	// resizing. Parallel runs require the world's ChoicePolicy to be
	// thread-safe — wrap stateful policies in Locked.
	Workers int
	// Strategy selects the traversal. Nil means ChainDFS.
	Strategy Strategy
	// FaultBudget bounds the fault transitions (crash, recover, reset,
	// and — with PartitionFaults — partition/heal) per explored path. Zero,
	// the default, disables fault branching entirely: the search space and
	// reports are then identical to the pre-fault engine. Every strategy
	// honors the budget; ChainDFS treats a fault as a branch point the way
	// DropBranches treats loss.
	FaultBudget int
	// PartitionFaults additionally enumerates network-partition
	// transitions (node isolation and heal) as fault actions, drawn from
	// the same FaultBudget.
	PartitionFaults bool
	// MaxFrontier caps the number of pending frontier units. Zero, the
	// default, means unbounded. Each worker's deque holds an equal share of
	// the cap; when a share binds, the newest incoming units are dropped,
	// and the report counts the drops in FrontierDropped and marks itself
	// Truncated. This makes multi-million-state budgets safe on small
	// machines: fan-out frontier width, not the state budget, is what
	// exhausts memory.
	MaxFrontier int
	// Depth bounds the length of each causal chain. A fault-free ChainDFS
	// run keeps no seen set (Explore), on the premise that its chains do
	// not come back, above the bound, to a state with anything left to
	// expand. TestFaultFreeChainsNeverRevisit pins that premise for the
	// apps and live depths the runtime uses; a new app or a deeper live
	// lookahead must be added to it, or a revisiting chain re-expands
	// duplicate subtrees and spends MaxStates on them.
	Depth int
	// MaxStates bounds the total number of handler executions. Parallel
	// runs share the budget through an atomic counter and may overshoot
	// by at most one state per worker.
	MaxStates int
	// Properties are checked on every explored state.
	Properties []Property
	// Objective, if set, is evaluated on every explored state.
	Objective Objective
	// ExploreTimers includes pending timer firings as chain starts and
	// chain steps. Defaults to true via NewExplorer.
	ExploreTimers bool
	// DropBranches additionally explores dropping each initial datagram
	// (loss branch). Off by default; chains grow quadratically with it.
	// Loss branches are a causal-chain notion: only ChainDFS implements
	// them, BFS ignores the flag.
	DropBranches bool
	// Deadline, when non-zero, is a wall-clock bound on the run: once it
	// passes, workers stop expanding and the report comes back partial and
	// marked Truncated, exactly as when the state budget is spent. Long
	// fuzz campaigns use it so one pathological schedule cannot overrun
	// the campaign's time box. The clock is polled every few hundred
	// states, so overshoot is bounded by a handful of handler executions.
	Deadline time.Time
	// ContainPanics converts a panic inside a worker's expansion — a
	// panicking service handler or a panicking property — into a recorded
	// PanicProperty violation carrying the branch's reconstructed trace,
	// abandoning that branch but letting the run (and the process) finish.
	// NewExplorer enables it; zero-value Explorers keep panics fatal so
	// engine bugs in tests fail loudly.
	ContainPanics bool
	// Prior, when set, is the start world of an earlier Explore over these
	// same Properties on an earlier model of the same deployment. If every
	// property held there and it models the same nodes with the same down
	// flags, the start world is
	// checked by Step against Prior's services instead of from scratch;
	// anything else about Prior is ignored, and so is a Prior that does not
	// qualify. It is only read, and must not be written after that run.
	Prior *World

	// report is what a one-worker chain run returns (Explore): the
	// explorer lends it back until its next run instead of allocating a
	// Report per decision.
	report Report
}

// visitKey is the state-deduplication key: the maintained world digest
// (World.Digest; EXPERIMENTS.md E12 is why it is the incremental one),
// folded with the path's remaining fault budget when fault branching is
// on. Two visits
// of the same world state are interchangeable only if they can still take
// the same fault transitions — without the fold, a budget-spent path could
// claim the digest first and prune a budget-rich revisit along with every
// fault-reachable violation behind it. With FaultBudget 0 — a BFS run; a
// fault-free chain keeps no seen set — the key is the bare digest,
// preserving the pre-fault engine's pruning exactly.
func (x *Explorer) visitKey(w *World, faults int) uint64 {
	d := w.Digest()
	if x.FaultBudget > 0 {
		d = sm.Mix64(d + uint64(x.FaultBudget-faults)*0x9e3779b97f4a7c15)
	}
	return d
}

// NewExplorer returns an explorer with the given chain depth and a state
// budget proportionate to it.
func NewExplorer(depth int) *Explorer {
	return &Explorer{Depth: depth, MaxStates: 4096, ExploreTimers: true, ContainPanics: true}
}

// enabled enumerates w's schedulable actions into the world's reusable
// action scratch: the returned slice is valid until the next enabled or
// faultActions call on the same world, which every caller satisfies
// because worlds are expanded by one frame at a time (recursion forks a
// fresh world) and each frame is done with one result before asking for
// the other.
func (x *Explorer) enabled(w *World) []Action {
	if w.actScratch == nil {
		// First enumeration on a fresh shell: size for the in-flight set
		// in one allocation instead of a doubling chain of appends.
		w.actScratch = make([]Action, 0, len(w.Inflight)+4)
	}
	acts := w.actScratch[:0]
	for i, m := range w.Inflight {
		if w.IsDown(m.Dst) || !w.Reachable(m.Src, m.Dst) {
			continue
		}
		acts = append(acts, Action{Kind: ActionMessage, MsgIx: i, Msg: m})
	}
	if x.ExploreTimers {
		for i := range w.slots {
			s := &w.slots[i]
			if s.down {
				continue
			}
			for _, name := range s.timers { // ascending: a deterministic order
				acts = append(acts, Action{Kind: ActionTimer, Node: w.nodeOrder[i], Timer: name})
			}
		}
	}
	return w.keepActions(acts)
}

// keepActions makes acts the world's action scratch, zeroing the slots the
// previous enumeration filled past its end: only the live actions pin
// messages, so a recycled shell clears no more than they (worldPool.put).
func (w *World) keepActions(acts []Action) []Action {
	if prev := len(w.actScratch); len(acts) < prev {
		clear(acts[len(acts):prev])
	}
	w.actScratch = acts // retain the (possibly grown) backing array
	return acts
}

// faultActions enumerates the fault transitions available in w after
// `used` faults were already taken on the path: crash (plus reset, when a
// recovery hook can supply restart state) for every live node, recover for
// every down node, and — when PartitionFaults is on — isolate/heal. The
// order follows the world's sorted node order, so runs are deterministic.
// The result shares the world's action scratch with enabled() and is
// valid until the next call of either on the same world.
func (x *Explorer) faultActions(w *World, used int) []Action {
	if x.FaultBudget <= used {
		return nil
	}
	acts := w.actScratch[:0]
	nodes := w.Nodes()
	var cuts map[NodeID]int
	if x.PartitionFaults {
		cuts = w.partitionCutCounts()
	}
	for i, id := range nodes {
		if w.slots[i].down {
			acts = append(acts, Action{Kind: ActionRecover, Node: id})
			continue
		}
		acts = append(acts, Action{Kind: ActionCrash, Node: id})
		if w.CanRestart(id) {
			acts = append(acts, Action{Kind: ActionReset, Node: id})
		}
		if x.PartitionFaults {
			// Isolate while any pair is still connected; heal while any
			// pair is cut — a partially partitioned node (e.g. a live
			// group partition mirrored into the world) offers both.
			if cuts[id] < len(nodes)-1 {
				acts = append(acts, Action{Kind: ActionPartition, Node: id})
			}
			if cuts[id] > 0 {
				acts = append(acts, Action{Kind: ActionHeal, Node: id})
			}
		}
	}
	return w.keepActions(acts)
}

// Explore runs the configured strategy from w across the configured worker
// pool. The start world is not modified: every branch works on
// copy-on-write forks.
//
// A ChainDFS run with Workers <= 1 is the live lookahead's shape, and
// pays for nothing it does not use: it runs its roots in order on the
// calling goroutine (runChains), without the scheduler's shards and
// deques or a stopwatch, and returns the explorer's own Report, which
// stays valid until x's next Explore. Every other run goes through the
// scheduler (run), returns a Report of its own and stamps its Elapsed.
func (x *Explorer) Explore(w *World) *Report {
	strat := x.Strategy
	if strat == nil {
		strat = ChainDFS{}
	}
	_, chain := strat.(ChainDFS)
	inline := chain && x.Workers <= 1
	var start time.Time
	if !inline {
		start = time.Now() //crystalvet:wallclock stopwatch for Report.Elapsed; never reaches world state or digests
	}
	budget := x.MaxStates
	if budget <= 0 {
		budget = 4096
	}
	ctx := newCtx(x, w, budget)
	// Whatever verdict w carries is some other run's: start it unchecked.
	w.step.forget()
	w.step = stepRecord{track: hasStep(x.Properties), touched: w.step.touched}
	// Only a run that can revisit a state deduplicates (DESIGN.md §2.4): a
	// BFS fan-out interleaves, and a fault transition need not consume a
	// message. A fault-free chain consumes the message it delivers at
	// every step, so it keeps no seen set and never digests a world.
	dedup := !chain || x.FaultBudget > 0
	if dedup || !inline {
		// Prime the maintained digest (and per-message digest memos)
		// while the start world is still single-threaded: every fork then
		// inherits valid caches instead of rebuilding them — and, for
		// parallel runs, instead of racing to memoize shared messages,
		// which a property that digests a fork would do even in a run
		// that keeps no seen set.
		w.Digest()
	}
	// Freeze before forking so concurrent root forks stay read-only on w.
	w.Freeze()
	frontier, rootPanic := x.roots(ctx, strat, w)
	workers := max(x.Workers, 1)
	if chain {
		// More workers than roots only helps strategies that grow the
		// frontier; a chain's never grows.
		workers = min(workers, max(len(frontier), 1))
	}
	var r *Report
	var shards []*Report
	if inline {
		x.report = newReport()
		r = &x.report
		r.arena = ctx.rootArena // roots and chains run on this goroutine
	} else {
		shards = ctx.newShards(workers)
		r = shards[0]
	}
	if dedup {
		// The seen set follows the pool that actually runs. The one-worker
		// map is the context's, grown on demand and kept from run to run.
		if workers == 1 {
			if ctx.plain == nil {
				ctx.plain = make(plainSeen)
			}
			ctx.seen = ctx.plain
		} else {
			ctx.seen = newLockFreeSeen(budget)
		}
	}
	if rootPanic != nil {
		r.Panics++
		r.addViolation(*rootPanic)
	}
	x.checkRoot(ctx, w, r) // score the root state too
	// The root forks were taken before the root was checked: hand them its
	// verdict now (Strategy.Roots only forks, so they are still that state).
	for i := range frontier {
		frontier[i].World.step.inherit(&w.step)
	}
	if inline {
		x.runChains(ctx, strat, frontier, r)
		r.arena = nil
	} else {
		x.run(ctx, strat, frontier, shards)
		// Take the per-worker scratch back before the shards escape: the
		// merged report is plain data (determinism tests DeepEqual whole
		// reports).
		ctx.returnShards()
		for _, o := range shards[1:] {
			r.merge(o)
		}
	}
	if r.scoreCount > 0 {
		r.MeanScore = r.scoreSum / float64(r.scoreCount)
	} else {
		r.MinScore, r.MaxScore = 0, 0
	}
	if n := ctx.dropped.Load(); n > 0 {
		// The spill cap cut pending work: the run did not exhaust the
		// reachable space, exactly like a spent state budget.
		r.FrontierDropped = int(n)
		r.Truncated = true
	}
	// Scheduler observability is stamped after the merge, like Elapsed:
	// shards carry no worker-pool identity, and the counters are
	// timing-dependent by nature.
	r.WorkerHighWater = int(ctx.workerHigh.Load())
	r.StealMisses = ctx.stealMisses.Load()
	ctx.recycle()
	if !inline {
		r.Elapsed = time.Since(start) //crystalvet:wallclock stopwatch readout for Report.Elapsed; diagnostics only
	}
	return r
}

// runChains is the one-worker chain run: each root unit's chain, in root
// order, on the calling goroutine. A chain publishes no successors, so
// the deques a scheduler drains would only hand the roots back in the
// order they came; the MaxFrontier cap binds on them the same way, the
// newest beyond it dropped.
func (x *Explorer) runChains(ctx *Ctx, strat Strategy, units []Unit, r *Report) {
	if x.MaxFrontier > 0 && len(units) > x.MaxFrontier {
		dropUnits(ctx, units[x.MaxFrontier:])
		units = units[:x.MaxFrontier]
	}
	ctx.workerHigh.Store(1)
	for i := range units {
		u := units[i]
		units[i] = Unit{}
		if ctx.Exhausted() {
			r.Truncated = true
			ctx.release(u.World) // never expanded: recycle now
			releaseTrace(r.arena, u.trace)
			continue
		}
		x.expand(ctx, strat, u, r)
	}
}

// chain executes action a on w (which the callee owns), then recurses on
// the consequences of a plus any newly enabled timers on the acting node.
// faults counts the fault transitions consumed on the path, a included
// when it is one; while the budget lasts, each fault transition is an
// additional branch point the way DropBranches branches over loss.
func (x *Explorer) chain(ctx *Ctx, w *World, a Action, depth, faults int, r *Report, trace branchTrace) {
	if ctx.Exhausted() {
		r.Truncated = true
		return
	}
	var out []*sm.Msg
	switch a.Kind {
	case ActionMessage:
		if a.MsgIx >= len(w.Inflight) {
			return
		}
		if m := w.Inflight[a.MsgIx]; w.Generic != nil {
			if w.slotOf(m.Dst) < 0 {
				x.genericDelivery(ctx, w, a.MsgIx, depth, faults, r, trace)
				return
			}
		}
		out = w.consequences(w.DeliverMessage(a.MsgIx))
	case ActionTimer:
		out = w.consequences(w.FireTimer(a.Node, a.Timer))
	default:
		if !IsFault(a.Kind) {
			return
		}
		// A fault transition is a chain step of its own; recovery's Init
		// sends are its causal consequences.
		out = w.consequences(applyFault(w, a))
		r.FaultsInjected++
	}
	if depth > r.MaxDepth {
		r.MaxDepth = depth
	}
	x.check(ctx, w, r, trace, depth)
	if depth >= x.Depth || ctx.revisit(w, faults) {
		return
	}
	for _, next := range out {
		if ctx.Exhausted() {
			r.Truncated = true
			return
		}
		// Locate the consequence message in the fork by identity of
		// content: messages are immutable, so pointer equality survives
		// the fork's shared in-flight slice.
		wc := w.fork()
		ix := -1
		for i, m := range wc.Inflight {
			if m == next {
				ix = i
				break
			}
		}
		if ix == -1 {
			ctx.release(wc)
			continue // consumed on another branch bookkeeping path
		}
		na := Action{Kind: ActionMessage, MsgIx: ix, Msg: next}
		ct := ctx.extendTrace(r.arena, trace, actionStep(na))
		nv := len(r.Violations)
		x.chain(ctx, wc, na, depth+1, faults, r, ct)
		releaseTrace(r.arena, ct)
		ctx.releaseSubtree(wc, r, nv) // subtree exhausted: recycle the fork
		// Loss branch: this consequence, if a datagram, may never arrive.
		if x.DropBranches && next.Unreliable {
			wd := w.fork()
			for i, m := range wd.Inflight {
				if m == next {
					wd.RemoveInflight(i)
					break
				}
			}
			if depth+1 > r.MaxDepth {
				r.MaxDepth = depth + 1
			}
			dt := ctx.extendTrace(r.arena, trace, step{kind: stepDrop, msg: next})
			x.check(ctx, wd, r, dt, depth+1)
			releaseTrace(r.arena, dt)
			ctx.release(wd)
		}
	}
	// Fault branches: while the budget lasts, the chain may be interrupted
	// by a crash, recovery, reset, or partition transition at this point,
	// and continues with that transition's consequences.
	for _, fa := range x.faultActions(w, faults) {
		if ctx.Exhausted() {
			r.Truncated = true
			return
		}
		wf := w.fork()
		ft := ctx.extendTrace(r.arena, trace, actionStep(fa))
		nv := len(r.Violations)
		x.chain(ctx, wf, fa, depth+1, faults+1, r, ft)
		releaseTrace(r.arena, ft)
		ctx.releaseSubtree(wf, r, nv)
	}
}

// genericDelivery handles a message addressed to an under-specified node
// (paper §3.3.2): the explorer branches over the generic node staying
// silent and over each reaction the installed GenericModel enumerates.
func (x *Explorer) genericDelivery(ctx *Ctx, w *World, ix, depth, faults int, r *Report, trace branchTrace) {
	m := w.Inflight[ix]
	w.RemoveInflight(ix)
	if depth > r.MaxDepth {
		r.MaxDepth = depth
	}
	// Silent branch: the unknown node absorbs the message.
	st := ctx.extendTrace(r.arena, trace, step{kind: stepGenericSilent})
	x.check(ctx, w, r, st, depth)
	releaseTrace(r.arena, st)
	if depth >= x.Depth || ctx.revisit(w, faults) {
		return
	}
	for bi, reaction := range w.Generic.Reactions(m) {
		if ctx.Exhausted() {
			r.Truncated = true
			return
		}
		wc := w.fork()
		nvReact := len(r.Violations)
		injected := make([]*sm.Msg, 0, len(reaction))
		for _, rm := range reaction {
			cp := *rm // models hand out templates; never share pointers
			wc.InjectMessage(&cp)
			injected = append(injected, &cp)
		}
		reactTrace := ctx.extendTrace(r.arena, trace, step{kind: stepGenericReact, ix: bi})
		for _, im := range injected {
			ixc := -1
			for i, q := range wc.Inflight {
				if q == im {
					ixc = i
					break
				}
			}
			if ixc < 0 {
				continue
			}
			na := Action{Kind: ActionMessage, MsgIx: ixc, Msg: im}
			wcc := wc.fork()
			it := ctx.extendTrace(r.arena, reactTrace, actionStep(na))
			nv := len(r.Violations)
			x.chain(ctx, wcc, na, depth+1, faults, r, it)
			releaseTrace(r.arena, it)
			ctx.releaseSubtree(wcc, r, nv)
		}
		releaseTrace(r.arena, reactTrace)
		ctx.releaseSubtree(wc, r, nvReact)
	}
	// Fault branches apply at generic-delivery steps like at any other
	// chain step: the silent-absorption state may be interrupted by a
	// crash, recovery, reset, or partition transition.
	for _, fa := range x.faultActions(w, faults) {
		if ctx.Exhausted() {
			r.Truncated = true
			return
		}
		wf := w.fork()
		ft := ctx.extendTrace(r.arena, trace, actionStep(fa))
		nv := len(r.Violations)
		x.chain(ctx, wf, fa, depth+1, faults+1, r, ft)
		releaseTrace(r.arena, ft)
		ctx.releaseSubtree(wf, r, nv)
	}
}

// consequences filters msgs down to those that actually entered the
// world's in-flight set (destination modeled), into the world's reusable
// scratch. The result is valid until the next consequences call on the
// same world — which only happens one chain frame later, on a fork.
func (w *World) consequences(msgs []*sm.Msg) []*sm.Msg {
	out := w.conseqScratch[:0]
	for _, m := range msgs {
		for _, q := range w.Inflight {
			if q == m {
				out = append(out, m)
				break
			}
		}
	}
	w.conseqScratch = out
	return out
}

// roots seeds the frontier, containing a strategy/handler panic into a
// violation record when ContainPanics is set (the frontier then comes
// back empty and the run reports the panic instead of dying).
func (x *Explorer) roots(ctx *Ctx, strat Strategy, w *World) (units []Unit, panicV *Violation) {
	if !x.ContainPanics {
		return strat.Roots(x, ctx, w), nil
	}
	defer func() {
		if p := recover(); p != nil {
			units = nil
			panicV = &Violation{Property: PanicProperty, Trace: []string{fmt.Sprintf("panic: %v", p)}}
		}
	}()
	return strat.Roots(x, ctx, w), nil
}

// checkRoot scores the start state, containing a panicking property into
// a PanicProperty violation (deeper states are covered by the expansion
// wrapper, but the root is checked outside any expansion).
func (x *Explorer) checkRoot(ctx *Ctx, w *World, r *Report) {
	if x.ContainPanics {
		defer func() {
			if p := recover(); p != nil {
				r.Panics++
				r.addViolation(Violation{Property: PanicProperty,
					Trace: []string{fmt.Sprintf("panic: %v", p)}})
			}
		}()
	}
	w.carryVerdict(x.Prior, x.Properties)
	x.check(ctx, w, r, branchTrace{}, 0)
	w.step.props = x.Properties
}

// expand runs one strategy expansion for the scheduler, converting a
// panic — a service handler or invariant blowing up inside the branch —
// into a recorded PanicProperty violation whose trace is the branch's
// reconstructed path plus the panic value. The branch (and whatever
// worlds it held) is abandoned to the garbage collector; every other
// branch, and the process, keeps running.
func (x *Explorer) expand(ctx *Ctx, strat Strategy, u Unit, r *Report) (succ []Unit) {
	if !x.ContainPanics {
		return strat.Expand(x, ctx, u, r)
	}
	defer func() {
		if p := recover(); p != nil {
			r.Panics++
			r.addViolation(Violation{
				Property: PanicProperty,
				Trace:    append(ctx.materializeTrace(u.trace), fmt.Sprintf("panic: %v", p)),
				Depth:    u.Depth,
			})
			succ = nil
		}
	}()
	return strat.Expand(x, ctx, u, r)
}

// check scores one reached state into the worker's report shard and the
// run's global budget counter.
func (x *Explorer) check(ctx *Ctx, w *World, r *Report, trace branchTrace, depth int) {
	ctx.count.Add(1)
	r.StatesExplored++
	var mat []string // materialized at most once per state
	var failed uint64
	for i := range x.Properties {
		p := &x.Properties[i]
		if p.Check != nil && !w.step.holds(i, p, w) {
			failed |= 1 << uint(i) // no bit past the 64th: holds never consults one
			if mat == nil {
				mat = ctx.materializeTrace(trace)
				// A witness world must never return to the free-list:
				// freeze it (and thereby everything it shares) so a later
				// release of the branch cannot recycle state a consumer
				// may still inspect.
				w.Freeze()
				w.pinned = true
			}
			r.addViolation(Violation{
				Property: p.Name,
				Trace:    mat,
				Depth:    depth,
			})
		}
	}
	w.step.settle(failed)
	r.scoreCount++
	if x.Objective == nil {
		return
	}
	s := x.Objective.Score(w)
	r.scoreSum += s
	if s < r.MinScore {
		r.MinScore = s
	}
	if s > r.MaxScore {
		r.MaxScore = s
	}
}
