package explore

import (
	"fmt"
	"math/rand"

	"crystalchoice/internal/sm"
)

// Action is one executable step in a world: the delivery of an in-flight
// message, the firing of a pending timer, or — when the explorer's fault
// budget allows — a fault transition (crash, recover, reset, partition,
// heal) on the node named by Node. Actions carry no formatted label: the
// human-readable trace step is derived on demand (see step.label), so
// enumerating and scheduling actions costs no string formatting.
type Action struct {
	Kind  byte // one of the Action* constants
	MsgIx int
	// Msg is the in-flight message a message action delivers, by
	// identity. Messages are immutable once in flight, so the pointer
	// remains the action's stable descriptor across world forks even as
	// MsgIx shifts.
	Msg   *sm.Msg
	Node  NodeID
	Timer string
}

// Action kinds.
const (
	ActionMessage byte = 'm'
	ActionTimer   byte = 't'
	// Fault transitions (paper §2: consequence prediction explores node
	// resets and other scenarios "as many as you can imagine").
	ActionCrash     byte = 'C' // node fails: down, timers cancelled
	ActionRecover   byte = 'R' // down node revives and replays Init
	ActionReset     byte = 'Z' // crash + immediate restart as one transition
	ActionPartition byte = 'P' // node isolated from every other node
	ActionHeal      byte = 'H' // every partition involving the node removed
)

// IsFault reports whether kind is a fault transition.
func IsFault(kind byte) bool {
	switch kind {
	case ActionCrash, ActionRecover, ActionReset, ActionPartition, ActionHeal:
		return true
	}
	return false
}

// applyFault executes a fault action on w, returning the messages the
// transition produced (recovery replays Init, whose sends are the fault's
// causal consequences; the other transitions produce none).
func applyFault(w *World, a Action) []*sm.Msg {
	switch a.Kind {
	case ActionCrash:
		w.Crash(a.Node)
	case ActionRecover:
		return w.Recover(a.Node, nil)
	case ActionReset:
		w.Crash(a.Node)
		return w.Recover(a.Node, nil)
	case ActionPartition:
		w.IsolateNode(a.Node)
	case ActionHeal:
		w.HealNode(a.Node)
	}
	return nil
}

// Unit is one schedulable piece of exploration work: a world owned by the
// unit plus the step to take in it. Strategies produce units; the
// scheduler distributes them over the worker pool.
type Unit struct {
	World *World
	Act   Action
	Depth int
	// trace is the branch's trace handle: a compact parent-pointer path,
	// materialized into labels only when a violation needs it.
	trace branchTrace
	// Faults counts the fault transitions on the unit's path, including
	// Act itself when it is one; the explorer's FaultBudget bounds it.
	Faults int
	// Seed parameterizes strategies that randomize per unit (RandomWalk).
	Seed int64
	// Priority orders the unit in a best-first frontier (higher first).
	// Only strategies marked BestFirst (Guided) set it; the deques every
	// other strategy drains from ignore it.
	Priority float64
}

// Strategy decides the shape of the search: how the initial frontier is
// seeded from the start world and how one unit of work expands into
// successors. The scheduler (Explorer.Explore) owns the frontier and the
// worker pool; strategies own the traversal semantics.
//
// Expand records everything it explores into r, the invoking worker's
// report shard; shards are merged after the frontier drains.
type Strategy interface {
	Name() string
	// Roots seeds the frontier from the start world. Each unit must own
	// its world (fork it from w) and leave it unstepped: the engine checks
	// the start world after seeding, and the forks take over its verdict.
	Roots(x *Explorer, ctx *Ctx, w *World) []Unit
	// Expand processes one unit and returns successor units, if any.
	Expand(x *Explorer, ctx *Ctx, u Unit, r *Report) []Unit
}

// BestFirster marks strategies whose frontier is a priority queue: the
// scheduler's workers then share one heap and each expands the
// highest-Priority pending unit next, instead of popping and stealing
// from per-worker deques.
type BestFirster interface {
	BestFirst() bool
}

// bestFirst reports whether strat asks for a priority frontier.
func bestFirst(strat Strategy) bool {
	bf, ok := strat.(BestFirster)
	return ok && bf.BestFirst()
}

// ParseStrategy resolves a strategy by its command-line name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "chaindfs", "chain":
		return ChainDFS{}, nil
	case "bfs":
		return BFS{}, nil
	case "randomwalk", "walk":
		return RandomWalk{}, nil
	case "guided", "bestfirst":
		return Guided{}, nil
	}
	return nil, fmt.Errorf("unknown exploration strategy %q (chaindfs|bfs|randomwalk|guided)", name)
}

// ChainDFS is the paper's consequence prediction (§2) and the default
// strategy: one frontier unit per initially enabled action, each expanded
// by following the chain of that action's causal consequences
// depth-first. With Workers<=1 the chains run in root order on the calling
// goroutine, which reproduces the original sequential engine's reports
// byte for byte.
type ChainDFS struct{}

// Name returns "chaindfs".
func (ChainDFS) Name() string { return "chaindfs" }

// Roots yields one unit per enabled action in the start world, plus one
// per fault transition when the fault budget allows.
func (ChainDFS) Roots(x *Explorer, ctx *Ctx, w *World) []Unit {
	return rootUnits(x, ctx, w)
}

// rootUnits seeds the shared frontier shape of ChainDFS and BFS: one unit
// per enabled action, then one per enabled fault transition. Trace nodes
// come from the run's root arena (roots are built before the workers
// start); each unit owns its trace handle, released by whichever worker
// exhausts — or whichever spill path drops — the unit. The slice is the
// run context's: the scheduler copies the units out and clears it.
func rootUnits(x *Explorer, ctx *Ctx, w *World) []Unit {
	units := ctx.rootBuf[:0]
	for _, a := range x.enabled(w) {
		units = append(units, Unit{World: w.fork(), Act: a, Depth: 1,
			trace: ctx.extendTrace(ctx.rootArena, branchTrace{}, actionStep(a))})
	}
	for _, a := range x.faultActions(w, 0) {
		units = append(units, Unit{World: w.fork(), Act: a, Depth: 1, Faults: 1,
			trace: ctx.extendTrace(ctx.rootArena, branchTrace{}, actionStep(a))})
	}
	ctx.rootBuf = units
	return units
}

// Expand follows the unit's causal chain to the depth bound, then takes
// the root-level loss branch for unreliable datagrams when DropBranches is
// on. Chains recurse internally, so no successor units are produced.
func (ChainDFS) Expand(x *Explorer, ctx *Ctx, u Unit, r *Report) []Unit {
	nv := len(r.Violations)
	x.chain(ctx, u.World, u.Act, u.Depth, u.Faults, r, u.trace)
	ctx.releaseSubtree(u.World, r, nv) // chain exhausted: recycle the root fork
	releaseTrace(r.arena, u.trace)
	// Loss branch: an unreliable message may simply never arrive.
	root := ctx.root
	if x.DropBranches && u.Act.Kind == ActionMessage && u.Act.MsgIx < len(root.Inflight) && root.Inflight[u.Act.MsgIx].Unreliable {
		wd := root.fork()
		wd.RemoveInflight(u.Act.MsgIx)
		dt := ctx.extendTrace(r.arena, branchTrace{}, step{kind: stepDrop, msg: u.Act.Msg})
		x.check(ctx, wd, r, dt, 1)
		releaseTrace(r.arena, dt)
		ctx.release(wd)
		if 1 > r.MaxDepth {
			r.MaxDepth = 1
		}
	}
	return nil
}

// BFS is the full-interleaving fan-out: every enabled action of every
// reached state becomes a frontier unit. Unlike ChainDFS it interleaves
// unrelated events, reaching states no single causal chain produces —
// more scenario diversity per depth level at a much higher branching
// factor, so pair it with a budget. The name is historical: the scheduler
// drains its deques newest-first, so within the depth bound the fan-out
// is explored depth-first (a budgeted run reaches the bound instead of
// spending itself on the first few levels), and a state first reached
// deep may prune a later, shallower visit — the dedup key carries no
// depth. Messages to generic nodes are absorbed silently (no reaction
// branching).
type BFS struct{}

// Name returns "bfs".
func (BFS) Name() string { return "bfs" }

// Roots yields one unit per enabled action in the start world, plus one
// per fault transition when the fault budget allows.
func (BFS) Roots(x *Explorer, ctx *Ctx, w *World) []Unit {
	return rootUnits(x, ctx, w)
}

// Expand executes the unit's action and fans out every enabled action of
// the resulting state as successors — fault transitions included while the
// budget lasts — deduplicating via the shared digest set.
func (BFS) Expand(x *Explorer, ctx *Ctx, u Unit, r *Report) []Unit {
	succ, _ := fanOut(x, ctx, u, r)
	return succ
}

// fanOut is the shared interleaving expansion of BFS and Guided: execute
// the unit's action, record the reached state, and return one successor
// per enabled action of the result (fault transitions included while the
// budget lasts), deduplicating via the shared digest set. The reached
// state's objective score is returned alongside so Guided can prioritize
// without evaluating the objective a second time.
func fanOut(x *Explorer, ctx *Ctx, u Unit, r *Report) ([]Unit, float64) {
	w := u.World
	// The unit's world is dead once its successors have forked it (or
	// once the state proves terminal): successors copy the outer maps and
	// share inner state copy-on-write, so the shell and every container
	// still marked owned after the forks return to the free-list. The
	// unit's trace handle dies with it — successors took child references
	// on the spine, so the prefix outlives the handle exactly as long as
	// any successor is pending.
	defer ctx.release(w)
	defer releaseTrace(r.arena, u.trace)
	switch u.Act.Kind {
	case ActionMessage:
		if u.Act.MsgIx >= len(w.Inflight) {
			return nil, 0
		}
		w.DeliverMessage(u.Act.MsgIx)
	case ActionTimer:
		w.FireTimer(u.Act.Node, u.Act.Timer)
	default:
		if !IsFault(u.Act.Kind) {
			return nil, 0
		}
		applyFault(w, u.Act)
		r.FaultsInjected++
	}
	if u.Depth > r.MaxDepth {
		r.MaxDepth = u.Depth
	}
	score := x.check(ctx, w, r, u.trace, u.Depth)
	if u.Depth >= x.Depth {
		return nil, score
	}
	if ctx.Visit(x.visitKey(w, u.Faults)) {
		return nil, score
	}
	acts := x.enabled(w)
	// Successors accumulate in the worker's reusable buffer: every
	// frontier copies pushed units out of the slice before this worker's
	// next expansion, so the backing array never aliases pending work.
	succ := r.succ[:0]
	for _, a := range acts {
		succ = append(succ, Unit{World: w.fork(), Act: a, Depth: u.Depth + 1,
			Faults: u.Faults, trace: ctx.extendTrace(r.arena, u.trace, actionStep(a))})
	}
	for _, a := range x.faultActions(w, u.Faults) {
		succ = append(succ, Unit{World: w.fork(), Act: a, Depth: u.Depth + 1,
			Faults: u.Faults + 1, trace: ctx.extendTrace(r.arena, u.trace, actionStep(a))})
	}
	r.succ = succ
	return succ, score
}

// Guided expands a priority frontier best-first: successors are scored by
// the configured Objective plus depth and fault-novelty heuristics, and
// the scheduler always expands the highest-scoring unit next. Where BFS
// spreads a bounded budget uniformly across the interleaving space,
// Guided spends it where violations are likeliest: the runtime resolver
// steers the live system toward high-objective states, so the suspicious
// futures are the low-objective ones, and fault transitions open
// scenarios message deliveries never reach. With no Objective configured
// the heuristics alone order the frontier (deep-and-faulty first).
type Guided struct {
	// DepthWeight scores each level of depth (default 0.25): deeper units
	// extend fewer, longer scenarios rather than shallowly fanning out,
	// which is what finds depth-k violations inside a budget.
	DepthWeight float64
	// FaultBonus is the novelty bonus of a unit whose action is a fault
	// transition, divided by the number of faults already on the path
	// (default 1): the first crash on a scenario is the interesting one.
	FaultBonus float64
}

// Name returns "guided".
func (Guided) Name() string { return "guided" }

// BestFirst marks the strategy's frontier as priority-ordered.
func (Guided) BestFirst() bool { return true }

// Roots yields the same seed frontier as ChainDFS and BFS, scored
// against the start world's objective (the one evaluation not already
// paid for by a check of the same state — Explore scores the root into
// the report separately).
func (g Guided) Roots(x *Explorer, ctx *Ctx, w *World) []Unit {
	units := rootUnits(x, ctx, w)
	base := 0.0
	if x.Objective != nil {
		base = -x.Objective.Score(w)
	}
	g.prioritize(base, units)
	return units
}

// Expand fans out like BFS and scores the successors, reusing the
// objective score check() just computed for the reached state.
func (g Guided) Expand(x *Explorer, ctx *Ctx, u Unit, r *Report) []Unit {
	succ, score := fanOut(x, ctx, u, r)
	g.prioritize(-score, succ)
	return succ
}

// prioritize scores sibling units. All siblings fork the same parent
// state, so base — that state's negated objective score: low-objective
// futures are where violations hide — is shared and the heuristics
// differentiate, with a content-derived epsilon breaking the remaining
// ties.
func (g Guided) prioritize(base float64, units []Unit) {
	if len(units) == 0 {
		return
	}
	depthW, faultB := g.DepthWeight, g.FaultBonus
	if depthW == 0 {
		depthW = 0.25
	}
	if faultB == 0 {
		faultB = 1
	}
	for i := range units {
		u := &units[i]
		u.Priority = base + depthW*float64(u.Depth) + siblingTieBreak(u)
		if IsFault(u.Act.Kind) {
			// u.Faults counts Act itself, so the first fault on a path
			// gets the full bonus and later ones proportionally less.
			u.Priority += faultB / float64(u.Faults)
		}
	}
}

// siblingTieBreak derives a deterministic epsilon from the destination
// node's component digest folded with the action's identity. Siblings
// share base and depth, so without it they tie exactly and the heap
// falls back to insertion order — which means guided search always
// preferred the lowest message index among equals. The epsilon orders
// equals by the content of the state the action lands on instead, and
// its scale (< 1e-6) keeps every legitimate priority difference (depth
// steps of DepthWeight, fault bonuses, objective deltas) decisive.
func siblingTieBreak(u *Unit) float64 {
	var dest NodeID
	salt := uint64(u.Act.Kind) * 0x9e3779b97f4a7c15
	switch u.Act.Kind {
	case ActionMessage:
		m := u.Act.Msg
		dest = m.Dst
		// Fold the message identity without touching its lazily memoized
		// digest (concurrent workers may not have primed it).
		salt ^= uint64(m.Src)*0x9e3779b97f4a7c15 + uint64(m.Dst)
		for i := 0; i < len(m.Kind); i++ {
			salt = (salt ^ uint64(m.Kind[i])) * 1099511628211
		}
	case ActionTimer:
		dest = u.Act.Node
		for i := 0; i < len(u.Act.Timer); i++ {
			salt = (salt ^ uint64(u.Act.Timer[i])) * 1099511628211
		}
	default:
		dest = u.Act.Node
	}
	h := sm.Mix64(u.World.componentHint(dest) ^ salt)
	return float64(h>>16) / float64(uint64(1)<<48) * 1e-6
}

// RandomWalk runs independent random trajectories through the state
// space: each unit follows one uniformly random enabled action per step to
// the depth bound. Walks sample deep scenarios a bounded exhaustive search
// cannot reach, and parallelize embarrassingly. Each walk carries its own
// rng, so as long as the MaxStates budget does not bind, results are
// deterministic for a fixed (Seed, Walks) pair regardless of worker
// count; once the shared budget runs out mid-walk, which steps land under
// it depends on worker interleaving.
type RandomWalk struct {
	// Walks is the number of trajectories. Default: twice the enabled
	// actions of the start world.
	Walks int
	// Seed bases each walk's private rng (walk i uses Seed+i). Default:
	// the start world's seed.
	Seed int64
}

// Name returns "randomwalk".
func (RandomWalk) Name() string { return "randomwalk" }

// Roots yields Walks units, each owning a fork of the start world and a
// distinct rng seed.
func (s RandomWalk) Roots(x *Explorer, ctx *Ctx, w *World) []Unit {
	n := s.Walks
	if n <= 0 {
		n = 2 * len(x.enabled(w))
	}
	seed := s.Seed
	if seed == 0 {
		seed = w.Seed
	}
	units := make([]Unit, 0, n)
	for i := 0; i < n; i++ {
		units = append(units, Unit{World: w.fork(), Depth: 1, Seed: seed + int64(i)})
	}
	return units
}

// Expand runs the unit's whole trajectory inline, mixing fault transitions
// into the per-step action pool while the budget lasts. Walks deliberately
// skip digest deduplication: revisiting states on different paths is what
// makes the sample unbiased.
func (RandomWalk) Expand(x *Explorer, ctx *Ctx, u Unit, r *Report) []Unit {
	rng := rand.New(rand.NewSource(u.Seed*2654435761 + 1))
	w := u.World
	defer ctx.release(w) // a walk owns its world for its whole trajectory
	trace := u.trace
	// The walk carries exactly one live handle: each step hands the old
	// one over to the new node's parent link, and the final release at
	// return cascades the whole spine back to the arena.
	defer func() { releaseTrace(r.arena, trace) }()
	faults := u.Faults
	for depth := u.Depth; depth <= x.Depth; depth++ {
		if ctx.Exhausted() {
			r.Truncated = true
			return nil
		}
		acts := x.enabled(w)
		fas := x.faultActions(w, faults)
		// One uniform draw over both pools, in the same index order the
		// pre-scratch code used (enabled, then faults), so fixed-seed
		// walks replay identically. Selecting from the two scratch
		// slices — rather than appending one to the other — keeps
		// enabled()'s result from being clobbered.
		n := len(acts) + len(fas)
		if n == 0 {
			return nil
		}
		a := Action{}
		if k := rng.Intn(n); k < len(acts) {
			a = acts[k]
		} else {
			a = fas[k-len(acts)]
		}
		switch a.Kind {
		case ActionMessage:
			w.DeliverMessage(a.MsgIx)
		case ActionTimer:
			w.FireTimer(a.Node, a.Timer)
		default:
			if IsFault(a.Kind) {
				applyFault(w, a)
				faults++
				r.FaultsInjected++
			}
		}
		nt := ctx.extendTrace(r.arena, trace, actionStep(a))
		releaseTrace(r.arena, trace)
		trace = nt
		if depth > r.MaxDepth {
			r.MaxDepth = depth
		}
		x.check(ctx, w, r, trace, depth)
	}
	return nil
}
