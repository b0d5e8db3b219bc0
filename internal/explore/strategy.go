package explore

import (
	"fmt"

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

// ParseStrategy resolves a strategy by its command-line name.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "chaindfs", "chain":
		return ChainDFS{}, nil
	case "bfs":
		return BFS{}, nil
	}
	return nil, fmt.Errorf("unknown exploration strategy %q (chaindfs|bfs)", name)
}

// ChainDFS is the paper's consequence prediction (§2) and the default
// strategy: one frontier unit per initially enabled action, each expanded
// by following the chain of that action's causal consequences
// depth-first. With Workers<=1 the chains run in root order on the calling
// goroutine, which reproduces the original sequential engine's reports
// byte for byte. Without a fault budget the chains are not deduplicated
// (see Explorer.Depth).
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
	return fanOut(x, ctx, u, r)
}

// fanOut is BFS's interleaving expansion: execute the unit's action,
// record the reached state, and return one successor per enabled action
// of the result (fault transitions included while the budget lasts),
// deduplicating via the shared digest set.
func fanOut(x *Explorer, ctx *Ctx, u Unit, r *Report) []Unit {
	w := u.World
	// The unit's world is dead once its successors have forked it (or
	// once the state proves terminal): successors share its slots and
	// inner state copy-on-write, so only the shell — the forks sealed
	// every ownership mark — returns to the free-list. The
	// unit's trace handle dies with it — successors took child references
	// on the spine, so the prefix outlives the handle exactly as long as
	// any successor is pending.
	defer ctx.release(w)
	defer releaseTrace(r.arena, u.trace)
	switch u.Act.Kind {
	case ActionMessage:
		if u.Act.MsgIx >= len(w.Inflight) {
			return nil
		}
		w.DeliverMessage(u.Act.MsgIx)
	case ActionTimer:
		w.FireTimer(u.Act.Node, u.Act.Timer)
	default:
		if !IsFault(u.Act.Kind) {
			return nil
		}
		applyFault(w, u.Act)
		r.FaultsInjected++
	}
	if u.Depth > r.MaxDepth {
		r.MaxDepth = u.Depth
	}
	x.check(ctx, w, r, u.trace, u.Depth)
	if u.Depth >= x.Depth || ctx.revisit(w, u.Faults) {
		return nil
	}
	acts := x.enabled(w)
	// Successors accumulate in the worker's reusable buffer: the deque
	// copies pushed units out of the slice before this worker's next
	// expansion, so the backing array never aliases pending work.
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
	return succ
}
