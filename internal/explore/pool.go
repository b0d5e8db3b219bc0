package explore

// Dead-world recycling. Exploration forks a world per branch and kills
// it as soon as the branch's subtree is exhausted; before recycling, that
// meant every fork paid for a fresh *World, and every first write paid
// again for the copy-on-write container it forked — the slot slice, a
// slot's timer list (setTimer), the in-flight slice. The free-list
// returns a dead world's shell — with its exclusively owned containers
// attached as spares — to the run, so the next fork and its first writes
// reuse them instead of allocating.
//
// Safety rules, in order of enforcement:
//   - Only the branch that forked a world releases it, exactly once,
//     after its subtree is exhausted (chain frames release their forks;
//     fanOut releases the expanded unit's world; walks release at the
//     trajectory end; schedulers release units the budget cut).
//   - Only containers still *marked owned* at death are reclaimed. A
//     fork shares its slots and inner state with its children and Clone
//     Freezes the parent — sealing every ownership mark — before any
//     sharing, so a mark that survives unsealed to death proves
//     exclusivity. Marks are per slot (svcOwned, timersOwned) and count
//     only while the world owns the slot slice itself (slotsOwned), which
//     ownSlots grants with every slot mark cleared. The shell itself is
//     never shared: Clone always gives a fork its own.
//   - A world that recorded a violation witness is Frozen and pinned by
//     Explorer.check; Ctx.release refuses it, so state a report consumer
//     could still inspect never re-enters circulation.
//
// The pool is process-global: put fully sanitizes a shell (no live
// references survive), so shells flow safely between Explore calls. That
// matters because the CrystalBall runtime invokes Explore once per
// decision point — a per-run pool would pay the whole cold-start shell
// cost (one allocation chain per live spine world) on every lookahead.
// It is built on sync.Pool, whose per-P caches make it an effectively
// per-worker free-list with no cross-worker locking on the hot path.

import "sync"

// worldPool is the free-list of dead exploration worlds.
type worldPool struct {
	shells sync.Pool // sanitized *World shells carrying their spares
}

// sharedWorldPool is the process-wide free-list every recycling run uses.
var sharedWorldPool = &worldPool{}

// get returns a recycled shell ready for cloneInto, or nil when the
// free-list is empty.
func (p *worldPool) get() *World {
	if v := p.shells.Get(); v != nil {
		return v.(*World)
	}
	return nil
}

// spareTimerSetCap bounds how many reclaimed per-node timer lists a shell
// carries; beyond it the garbage collector takes the rest.
const spareTimerSetCap = 4

// put reclaims a dead world: exclusively owned containers move to the
// shell's spare slots, everything else is cleared, and the shell joins
// the free-list. The caller guarantees w's subtree is exhausted and w is
// not pinned.
//
//crystalvet:cowwrite teardown of a dead world: nil-ing the container fields here releases, not mutates, shared state
func (p *worldPool) put(w *World) {
	// A sealed world's marks are provenance, not exclusivity: its forks
	// may still be alive and sharing the marked containers, so the plain
	// release path drops the marks and leaks those containers to the
	// garbage collector. Ctx.releaseExhausted clears sealed first — its
	// caller proved every fork is dead — making the marks effective again.
	if w.sealed {
		w.unseal()
	}
	// In-flight slice: owned means this world allocated the backing array
	// (ownInflight copy or append growth) and never shared it onward.
	if w.inflightOwned {
		s := w.Inflight[:cap(w.Inflight)]
		clear(s) // drop message references before pooling
		w.spareInflight = s[:0]
	}
	// Slots: reclaimed only when this world copied them for itself (a mark
	// surviving to death proves no child shares them), with the timer lists
	// their owned bits cover, cleared to capacity; otherwise they belong to
	// the sharing ancestors and are merely dereferenced.
	if w.slotsOwned {
		for i := range w.slots {
			s := &w.slots[i]
			if s.timersOwned && cap(s.timers) > 0 && len(w.spareTimerSets) < spareTimerSetCap {
				w.spareTimerSets = append(w.spareTimerSets, clearCap(s.timers))
			}
		}
		clear(w.slots)
		w.spareSlots = w.slots[:0]
	}
	w.slots = nil
	w.slotsOwned = false
	// Digest scratch: the pending dirty list (adopted or first-marked by
	// the next fork).
	if w.dig.dirty != nil {
		w.spareDirty = w.dig.dirty[:0]
	}
	// Partition relation forked for this branch's fault transitions.
	if w.partOwned {
		clear(w.partitioned)
		w.sparePartitions = w.partitioned
	}
	clear(w.rngs)
	w.Inflight = nil
	w.Now = 0
	w.Policy = nil
	w.Seed = 0
	w.Generic = nil
	w.Recovery = nil
	w.HasRecovery = nil
	w.Initial = nil
	w.partitioned = nil
	w.partOwned = false
	w.cow = false
	w.inflightOwned = false
	w.forks.Store(0)
	w.nodeOrder = nil
	w.dig = worldDigest{}
	w.step = stepRecord{touched: clearCap(w.step.touched)} // drop the pinned pre-images
	w.pinned = false
	// Handler/expansion scratch: keep the backing arrays, drop the
	// pointers they hold so pooled shells never pin dead state.
	w.scratchEnv = worldEnv{produced: clearCap(w.scratchEnv.produced)}
	// Enumerations zero what they stop using (see enabled), so only the
	// actions of the last one are live.
	clear(w.actScratch)
	w.actScratch = w.actScratch[:0]
	w.conseqScratch = clearCap(w.conseqScratch)
	p.shells.Put(w)
}

// clearCap zeroes a scratch slice's full capacity and returns it empty,
// so the reclaimed backing array holds no references while pooled.
func clearCap[T any](s []T) []T {
	if s == nil {
		return nil
	}
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}
