package explore

// Dead-world recycling. Exploration forks a world per branch and kills
// it as soon as the branch's subtree is exhausted; before recycling, that
// meant every fork paid for a fresh *World plus three outer maps
// (Services, Timers, Down), and every first write paid again for the
// copy-on-write container it forked. The free-list returns a dead
// world's shell — with its exclusively owned containers attached as
// spares — to the run, so the next fork and its first writes reuse them
// instead of allocating.
//
// Safety rules, in order of enforcement:
//   - Only the branch that forked a world releases it, exactly once,
//     after its subtree is exhausted (chain frames release their forks;
//     fanOut releases the expanded unit's world; walks release at the
//     trajectory end; schedulers release units the budget cut).
//   - Only containers still *marked owned* at death are reclaimed. A
//     fork shares inner state with its children and Clone Freezes the
//     parent — clearing every ownership mark — before any sharing, so a
//     mark that survives to death proves exclusivity. The outer maps and
//     the shell itself are never shared: Clone always gives a fork its
//     own.
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
	shells sync.Pool // *World shells with cleared outer maps and spares
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

// spareTimerSetCap bounds how many reclaimed per-node timer sets a shell
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
	// Per-node timer sets this world forked or materialized for itself.
	if w.ownedTimers != nil {
		for id := range w.ownedTimers {
			if len(w.spareTimerSets) >= spareTimerSetCap {
				break
			}
			if set := w.Timers[id]; set != nil {
				clear(set)
				w.spareTimerSets = append(w.spareTimerSets, set) //crystalvet:mapiter spare-container reclamation; recycled sets are interchangeable, order immaterial
			}
		}
		clear(w.ownedTimers)
		w.spareOwnedTimers = w.ownedTimers
	}
	if w.ownedSvc != nil {
		clear(w.ownedSvc)
		w.spareOwnedSvc = w.ownedSvc
	}
	// Digest scratch: the flushed per-node component array, and the
	// pending dirty list (adopted or first-marked by the next fork).
	if w.dig.hashOwned {
		w.spareHashes = w.dig.hashes[:0]
	}
	if w.dig.dirty != nil {
		w.spareDirty = w.dig.dirty[:0]
	}
	// Partition relation forked for this branch's fault transitions.
	if w.partOwned {
		clear(w.partitioned)
		w.sparePartitions = w.partitioned
	}
	// Outer maps: reclaimed only when this world copied them for itself
	// (a mark surviving to death proves no child shares them); otherwise
	// they belong to the sharing ancestors and are merely dereferenced.
	if w.svcMapOwned {
		clear(w.Services)
		w.spareSvcMap = w.Services
	}
	if w.timerMapOwned {
		clear(w.Timers)
		w.spareTimerMap = w.Timers
	}
	if w.downMapOwned {
		clear(w.Down)
		w.spareDownMap = w.Down
	}
	w.Services = nil
	w.Timers = nil
	w.Down = nil
	w.svcMapOwned = false
	w.timerMapOwned = false
	w.downMapOwned = false
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
	w.ownedSvc = nil
	w.ownedTimers = nil
	w.inflightOwned = false
	w.forks.Store(0)
	w.nodeOrder = nil
	w.dig = worldDigest{}
	w.step = stepRecord{touched: clearCap(w.step.touched)} // drop the pinned pre-images
	w.pinned = false
	// Handler/expansion scratch: keep the backing arrays, drop the
	// pointers they hold so pooled shells never pin dead state.
	w.scratchEnv = worldEnv{produced: clearCap(w.scratchEnv.produced)}
	w.actScratch = clearCap(w.actScratch)
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
