// Package explore implements CrystalBall's consequence-prediction state
// space exploration (paper §2, §3.4).
//
// A World is a materialized global state — per-node service clones, the
// in-flight message set, and pending timers — typically assembled from a
// node's latest consistent snapshot of its neighborhood. The Explorer runs
// depth-bounded exploration over causally related chains of events,
// checking safety properties and scoring objectives, which turns the model
// checker into "a simulator that runs a large number of simulations"
// (paper §3.3.2).
package explore

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"crystalchoice/internal/sm"
)

// NodeID aliases sm.NodeID.
type NodeID = sm.NodeID

// ChoicePolicy resolves exposed choices during exploration. seq is the
// 0-based index of the choice within the current event handler invocation
// on the given node.
type ChoicePolicy func(node NodeID, c sm.Choice, seq int) int

// RandomPolicy resolves every choice uniformly at random from rng.
func RandomPolicy(rng *rand.Rand) ChoicePolicy {
	return func(_ NodeID, c sm.Choice, _ int) int {
		if c.N <= 1 {
			return 0
		}
		return rng.Intn(c.N)
	}
}

// FirstPolicy always picks alternative 0.
func FirstPolicy(NodeID, sm.Choice, int) int { return 0 }

// ForceFirst wraps base so that the first choice named name made by node
// resolves to idx; all other choices fall through to base.
func ForceFirst(node NodeID, name string, idx int, base ChoicePolicy) ChoicePolicy {
	done := false
	return func(n NodeID, c sm.Choice, seq int) int {
		if !done && n == node && c.Name == name {
			done = true
			if idx < c.N {
				return idx
			}
		}
		return base(n, c, seq)
	}
}

// Locked serializes a choice policy behind a mutex. Stateful policies
// (RandomPolicy's rng, ForceFirst's latch) are shared by every world forked
// from the start world, so a parallel exploration (Explorer.Workers > 1)
// must wrap them to stay race-free.
func Locked(p ChoicePolicy) ChoicePolicy {
	var mu sync.Mutex
	return func(n NodeID, c sm.Choice, seq int) int {
		mu.Lock()
		defer mu.Unlock()
		return p(n, c, seq)
	}
}

// World is a global state the explorer can fork and evolve. Per-node
// state — service, pending timers, down flag — lives in one slot per node,
// read through Service, PendingTimers/TimerPending and IsDown and written
// through AddNode, ReplaceService, SetTimerPending, SetDown and the
// handlers the world runs. A World owns its services — constructing one
// must hand it clones, never live service state — or is frozen and borrows
// immutable ones: a frozen world never writes a service in place
// (ownService clones first), so it may hold, by reference, states their
// owner promises never to mutate. The predictive model's standing world is
// built that way (ForkWith, Patch).
type World struct {
	Inflight []*sm.Msg
	Now      time.Duration
	Policy   ChoicePolicy
	Seed     int64
	// Generic, when set, models nodes outside the neighborhood as
	// under-specified "generic nodes" (paper §3.3.2): messages to them
	// stay explorable and branch over the model's possible reactions.
	Generic GenericModel
	// Recovery, when set, supplies the state a crashed node restarts with
	// inside this world: typically a clone of the freshest neighborhood
	// checkpoint the predictive model retains (paper §2: checkpoints are
	// what lookahead recovers nodes from). Returning nil falls through to
	// Initial, then to a warm restart keeping the pre-crash state. The
	// hook is shared by every fork and may be called from concurrent
	// workers, so it must be safe for concurrent use (pure reads + clone).
	Recovery func(id NodeID) sm.Service
	// HasRecovery, when set, reports cheaply (no clone) whether Recovery
	// would yield state for id; installers of Recovery should set it so
	// fault enumeration can gate reset branches per node without paying
	// for a checkpoint clone. Nil means "assume Recovery may yield".
	HasRecovery func(id NodeID) bool
	// Initial, when set, supplies a node's cold-restart state (a fresh
	// service as deployed), used when Recovery yields nothing. Same
	// sharing and concurrency contract as Recovery.
	Initial func(id NodeID) sm.Service

	rngs map[NodeID]*rand.Rand

	// partitioned is the reachability relation gating delivery: an entry
	// for an unordered node pair means the two cannot exchange messages
	// until the pair heals. Shared with forks copy-on-write (partOwned).
	partitioned map[pairKey]bool
	partOwned   bool

	// slots holds one nodeSlot per node: slot i is node nodeOrder[i].
	slots []nodeSlot
	// nodeOrder is the ascending node IDs. Only AddNode replaces it; the
	// slice is never written once built and is shared by forks.
	nodeOrder []NodeID

	// Copy-on-write bookkeeping. A world forked with Clone shares
	// everything with its parent — the slot slice, and through it the
	// individual services and per-node timer lists, plus the in-flight
	// slice — until either side writes. slotsOwned records that this world
	// copied the slot slice for itself (ownSlots); a slot's svcOwned and
	// timersOwned bits record which inner pieces it copied, and count only
	// while slotsOwned holds and the world is not sealed. cow == false
	// means the world was never forked and owns everything outright.
	cow           bool
	slotsOwned    bool
	inflightOwned bool
	// sealed records that the containers this world's marks cover were
	// shared with at least one fork (Freeze). The marks survive as a
	// provenance record — "this world allocated these" — but no longer
	// grant in-place writes: the next write unseals, dropping them, and
	// copies again. A world that dies sealed keeps the record, so a
	// release that can prove every fork is already dead
	// (Ctx.releaseExhausted) reclaims the containers the plain release
	// path would have to leak to the garbage collector.
	sealed bool

	// forks counts Clone calls on this world; each fork's seed
	// is derived from (Seed, fork index) so sibling forks get distinct
	// per-node RNG streams. Atomic because concurrent workers may fork a
	// frozen start world simultaneously.
	forks atomic.Int64

	// pinned marks a world that a recorded violation witness reached:
	// Ctx.release refuses to recycle it (see pool.go's safety rules).
	pinned bool

	// Spare containers carried by recycled shells (see worldPool.put):
	// the copy-on-write hooks consume them instead of allocating.
	spareSlots      []nodeSlot
	spareInflight   []*sm.Msg
	spareTimerSets  [][]string // empty, cleared to capacity
	sparePartitions map[pairKey]bool

	// Per-world scratch reused across handler executions and action
	// enumerations on this world. Never shared: cloneInto leaves the
	// fields behind, so a fork starts from whatever its (possibly
	// recycled) shell carries, and pool.put clears the references they
	// pin while keeping the capacity. Each slice backs exactly one
	// chain/expansion frame at a time — recursion always moves to a
	// fork — which is what makes single-buffer reuse safe.
	scratchEnv    worldEnv  // handler invocation env + produced buffer
	actScratch    []Action  // enabled() or faultActions() result; zero past len
	conseqScratch []*sm.Msg // consequences() result
	spareDirty    []int     // reclaimed digest dirty-list backing

	// dig is the maintained state digest (see Digest). Forks copy it; the
	// per-node components it sums live in the slots.
	dig worldDigest

	// step is the service delta since the last checked state (step.go).
	step stepRecord
}

// nodeSlot is one node's state in a world.
type nodeSlot struct {
	svc sm.Service
	// timers is the pending timer names in ascending order. Only setTimer
	// writes it: in place while timersOwned counts, into a copy otherwise.
	timers []string
	// hash is the node's finalized digest component, current while the
	// world's digest is valid and the slot is not on its dirty list.
	hash uint64
	down bool
	// svcOwned and timersOwned record that this world copied svc or timers
	// for itself; they count only while the world's slotsOwned holds and it
	// is not sealed (see World.unseal).
	svcOwned, timersOwned bool
}

// worldDigest is the incrementally maintained world digest: a finalized
// component hash per node (service digest + down flag + timer set, kept in
// the node's slot) combined as an order-independent sum, plus a
// commutative multiset hash over the in-flight messages. COW write hooks
// record changed slots in dirty; the next Digest call recomputes only
// those components. inflightSum is updated eagerly in O(1) on
// inject/remove/absorb.
type worldDigest struct {
	valid       bool
	nodeSum     uint64 // sum over the slots' hashes
	inflightSum uint64 // sum of finalized in-flight msg digests
	partSum     uint64 // sum of finalized partitioned-pair hashes
	dirty       []int  // slots to recompute on next Digest
}

// pairKey is an unordered node pair, normalized low-high.
type pairKey struct{ a, b NodeID }

func mkPair(a, b NodeID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// pairHash finalizes one partitioned pair for commutative combination.
func pairHash(k pairKey) uint64 {
	return sm.Mix64(sm.NewHasher().WriteNodePair(k.a, k.b).Sum())
}

// NewWorld returns an empty world with the given choice policy and seed.
func NewWorld(policy ChoicePolicy, seed int64) *World {
	if policy == nil {
		policy = FirstPolicy
	}
	return &World{Policy: policy, Seed: seed}
}

// AddNode installs svc (which must already be a clone owned by the world)
// as node id's state, keeping the slots in ascending ID order. Membership
// is setup-time: the node order is rebuilt and the digest recomputed from
// scratch on its next call.
func (w *World) AddNode(id NodeID, svc sm.Service) {
	w.ownSlots()
	i, found := slices.BinarySearch(w.nodeOrder, id)
	if !found {
		w.slots = slices.Insert(w.slots, i, nodeSlot{})
		// Forks share the order: insert into a copy, never in place.
		w.nodeOrder = slices.Insert(slices.Clip(w.nodeOrder), i, id)
	}
	w.slots[i].svc, w.slots[i].svcOwned = svc, true
	w.dig = worldDigest{} // membership changed: rebuild on next Digest
	w.step.forget()
}

// slotOf returns node id's slot index, or -1 when id is no node of the
// world. Dense IDs (node i in slot i, the common deployment) resolve
// without a search.
func (w *World) slotOf(id NodeID) int {
	if i := int(id); uint(i) < uint(len(w.nodeOrder)) && w.nodeOrder[i] == id {
		return i
	}
	if i, ok := slices.BinarySearch(w.nodeOrder, id); ok {
		return i
	}
	return -1
}

// Service returns node id's state, nil when id is no node of the world.
// The state belongs to the world: callers only read it.
func (w *World) Service(id NodeID) sm.Service {
	if i := w.slotOf(id); i >= 0 {
		return w.slots[i].svc
	}
	return nil
}

// IsDown reports whether node id is crashed inside the world.
func (w *World) IsDown(id NodeID) bool {
	i := w.slotOf(id)
	return i >= 0 && w.slots[i].down
}

// TimerPending reports whether node id's named timer is pending.
func (w *World) TimerPending(id NodeID, name string) bool {
	i := w.slotOf(id)
	if i < 0 {
		return false
	}
	_, on := slices.BinarySearch(w.slots[i].timers, name)
	return on
}

// PendingTimers returns a copy of node id's pending timer names, sorted;
// nil when none is pending.
func (w *World) PendingTimers(id NodeID) []string {
	i := w.slotOf(id)
	if i < 0 || len(w.slots[i].timers) == 0 {
		return nil
	}
	return slices.Clone(w.slots[i].timers)
}

// Clone forks the world copy-on-write: the fork shares the parent's slot
// slice, service states, per-node timer lists, and in-flight slice, and
// each side copies a piece only immediately before first writing to it.
// This makes forking a branch O(1) pointer copies instead of a deep copy
// of every service, which dominates exploration cost. The choice policy is
// shared (policies are expected to be either stateless or installed fresh
// per exploration branch via WithPolicy).
func (w *World) Clone() *World {
	return w.cloneInto(&World{})
}

// fork is Clone for the exploration engine: the fork's shell — the
// *World plus its copy-on-write spare containers — comes from the
// free-list of dead worlds when one is available (EXPERIMENTS.md E15
// measured what recycling buys).
func (w *World) fork() *World {
	c := sharedWorldPool.get()
	if c == nil {
		c = &World{}
	}
	return w.cloneInto(c)
}

// ForkWith returns a fork of w in which node id holds svc, a state the
// fork owns. It is how a standing world is used: w is frozen, never
// digested, and lives as long as what it models, and every world handed
// out is a ForkWith of it. The fork leaves with its own slot slice — the
// container replacing a service writes — so nothing that reaches it
// reaches w's, which is what lets Patch write w's slots in place while
// forks are alive; everything else of w is shared and immutable. The fork
// is unprimed: a fault-free chain never digests it, and whatever does pays
// for its digest then (Digest). Seed, Policy, Now and the recovery hooks
// are the caller's to set.
func (w *World) ForkWith(id NodeID, svc sm.Service) *World {
	c := w.fork()
	c.ReplaceService(id, svc)
	return c
}

// Patch makes svc node id's state in a standing world (see ForkWith), in
// place and in O(1). The node must exist, and svc must never be written
// again.
//
//crystalvet:cowwrite a standing world's slots are shared with no fork: ForkWith's fork copies them before it is returned
func (w *World) Patch(id NodeID, svc sm.Service) {
	i := w.slotOf(id)
	if i < 0 {
		return
	}
	w.markDigestDirty(i)
	w.slots[i].svc = svc
}

// cloneInto fills c — an empty shell, possibly carrying recycled spare
// containers — as a copy-on-write fork of w. Every container, the slot
// slice included, is shared by pointer; the own* hooks copy on first
// write.
//
//crystalvet:cowwrite initializes a fresh fork shell: c has no sharers yet, and sharing the parent's containers is the point
func (w *World) cloneInto(c *World) *World {
	c.slots = w.slots
	c.nodeOrder = w.nodeOrder
	c.Inflight = w.Inflight // shared; messages are immutable once in flight
	c.Now = w.Now
	c.Policy = w.Policy
	c.Seed = forkSeed(w.Seed, w.forks.Add(1))
	c.Generic = w.Generic
	c.Recovery = w.Recovery
	c.HasRecovery = w.HasRecovery
	c.Initial = w.Initial
	c.cow = true
	c.partitioned = w.partitioned // shared; forked before first write
	c.adoptDigest(&w.dig)
	c.step.inherit(&w.step)
	// The parent now shares state with the fork, so it must also fork
	// before its next write. Freeze is skipped when already shared-and-
	// unowned so that concurrent Clones of a frozen world stay read-only.
	if !w.cow || w.owning() {
		w.Freeze()
	}
	return c
}

// owning reports whether the world holds any container it may write in
// place — i.e. whether Freeze would change anything. Sealed worlds own
// nothing writable: their marks are provenance, not write permission.
func (w *World) owning() bool {
	if w.sealed {
		return false
	}
	return w.slotsOwned || w.inflightOwned || w.partOwned
}

// adoptDigest copies the parent's maintained digest into the fork. The
// per-node components are shared with the slots; a pending dirty list is
// duplicated (into the shell's reclaimed backing when it fits) so sibling
// appends cannot clobber each other's entries.
func (c *World) adoptDigest(d *worldDigest) {
	c.dig = *d
	switch {
	case len(d.dirty) == 0:
		c.dig.dirty = nil
	case cap(c.spareDirty) >= len(d.dirty):
		c.dig.dirty = append(c.spareDirty[:0], d.dirty...)
		c.spareDirty = nil
	default:
		c.dig.dirty = append(make([]int, 0, len(d.dirty)), d.dirty...)
	}
}

// forkSeed derives a fork's world seed from the parent's seed and the
// 1-based fork index, so sibling forks of the same parent replay distinct
// per-node RNG streams.
func forkSeed(parent, k int64) int64 {
	return int64(sm.Mix64(uint64(parent)*0x9e3779b97f4a7c15 + uint64(k)))
}

// Freeze marks the world as shared so that every subsequent write forks
// its target first. The scheduler freezes the start world once before
// handing it to concurrent workers: Clone on a frozen world is then a
// read-only operation and safe to call from several goroutines.
func (w *World) Freeze() {
	w.cow = true
	w.sealed = true
}

// unseal retires the ownership marks of a world whose containers became
// shared with forks (Freeze), restoring the invariant that an effective
// mark proves exclusivity. It runs lazily before the next in-place
// write; until then a sealed world keeps its marks as pure provenance,
// which releaseExhausted — callable only once every fork is dead —
// turns back into reclaimable ownership.
func (w *World) unseal() {
	w.sealed = false
	w.slotsOwned = false
	w.inflightOwned = false
	w.partOwned = false
}

// ownSlots copies the shared slot slice before the first write into it —
// one copy of n slots into the shell's spare when it fits — with every
// owned bit cleared: the copy shares each service and timer list with the
// world it was forked from.
func (w *World) ownSlots() {
	if w.sealed {
		w.unseal()
	}
	if !w.cow || w.slotsOwned {
		return
	}
	n := len(w.slots)
	cp := w.spareSlots[:0]
	w.spareSlots = nil
	if cap(cp) < n {
		cp = make([]nodeSlot, n)
	}
	cp = cp[:n]
	copy(cp, w.slots)
	for i := range cp {
		cp[i].svcOwned, cp[i].timersOwned = false, false
	}
	w.slots = cp
	w.slotsOwned = true
}

// owns reports whether the world may write the piece a slot's owned bit
// covers in place. The caller has unsealed the world.
func (w *World) owns(bit bool) bool {
	return !w.cow || (w.slotsOwned && bit)
}

// ownService returns node id's service, forking it first if it is still
// shared with another world. Callers about to execute a handler (which
// mutates the service) must go through it.
func (w *World) ownService(id NodeID) sm.Service {
	i := w.slotOf(id)
	if i < 0 || w.slots[i].svc == nil {
		return nil
	}
	svc := w.slots[i].svc
	w.markDigestDirty(i) // caller is about to mutate the service
	if w.sealed {
		w.unseal()
	}
	if w.owns(w.slots[i].svcOwned) {
		w.step.wroteInPlace(id)
		return svc
	}
	cl := svc.Clone()
	if sameService(cl, svc) {
		// Self-cloning service: by returning itself, Clone declares the
		// service holds no per-world state worth isolating, so the slot
		// write below would be a no-op. Skip the slot copy and the
		// ownership mark entirely — stateless nodes cost nothing to own,
		// and have nothing a property's Step could find changed.
		return svc
	}
	w.ownSlots()
	w.slots[i].svc, w.slots[i].svcOwned = cl, true
	// svc is sealed — it is shared with the world this one was forked
	// from — so it stays the pre-image of whatever the caller writes.
	w.step.cloned(id, svc)
	return cl
}

// sameService reports whether two Service interface values are identical
// — same dynamic type and same data word. For the universal pointer-
// receiver case that is pointer identity; for exotic value-typed services
// it may report false for equal values, which only costs the conservative
// copy path. Comparing the raw interface words (rather than ==) never
// panics on uncomparable dynamic types and never allocates.
func sameService(a, b sm.Service) bool {
	return *(*[2]uintptr)(unsafe.Pointer(&a)) == *(*[2]uintptr)(unsafe.Pointer(&b))
}

// setTimer arms (on) or cancels slot i's named timer, keeping the list
// ascending. It is the one writer of a slot's timer list: it writes in
// place while the world owns the list, and otherwise writes the result
// into a copy — a recycled list when the shell carries one — that the
// world then owns. A fired timer's cancel therefore copies a shared list
// once, and the handler re-arming it writes that copy in place.
func (w *World) setTimer(i int, name string, on bool) {
	list := w.slots[i].timers
	j, pending := slices.BinarySearch(list, name)
	if pending == on {
		return
	}
	w.markDigestDirty(i) // the timer list is part of the node's component
	if w.sealed {
		w.unseal()
	}
	if w.owns(w.slots[i].timersOwned) {
		if on {
			list = slices.Insert(list, j, name)
		} else {
			list = slices.Delete(list, j, j+1)
		}
		w.slots[i].timers = list
		return
	}
	var cp []string
	if n := len(w.spareTimerSets); n > 0 {
		cp = w.spareTimerSets[n-1]
		w.spareTimerSets[n-1] = nil
		w.spareTimerSets = w.spareTimerSets[:n-1]
	} else {
		cp = make([]string, 0, max(len(list)+1, 4))
	}
	cp = append(cp, list[:j]...)
	if on {
		cp = append(cp, name)
	} else {
		j++
	}
	cp = append(cp, list[j:]...)
	w.ownSlots()
	w.slots[i].timers, w.slots[i].timersOwned = cp, true
}

// ownInflight forks the in-flight slice if it is still shared, so appends
// cannot write into a sibling world's backing array. The copy lands in
// the shell's spare backing array when it fits.
func (w *World) ownInflight() {
	if w.sealed {
		w.unseal()
	}
	if !w.cow || w.inflightOwned {
		return
	}
	var cp []*sm.Msg
	if n := len(w.Inflight); cap(w.spareInflight) >= n {
		cp = w.spareInflight[:n]
		w.spareInflight = nil
	} else {
		cp = make([]*sm.Msg, n)
	}
	copy(cp, w.Inflight)
	w.Inflight = cp
	w.inflightOwned = true
}

// ownPartitions readies the partition relation for mutation, forking a
// shared map and materializing a missing one (recycled when the shell
// carries a spare).
func (w *World) ownPartitions() {
	if w.sealed {
		w.unseal()
	}
	if !w.cow && w.partitioned != nil {
		return
	}
	if w.cow && w.partOwned {
		return
	}
	cp := w.sparePartitions
	w.sparePartitions = nil
	if cp == nil {
		cp = make(map[pairKey]bool, len(w.partitioned))
	}
	for k := range w.partitioned {
		cp[k] = true
	}
	w.partitioned = cp
	w.partOwned = w.cow
}

// Reachable reports whether a and b can exchange messages: true unless the
// pair is cut by a partition. A node is always reachable from itself.
func (w *World) Reachable(a, b NodeID) bool {
	if len(w.partitioned) == 0 || a == b {
		return true
	}
	return !w.partitioned[mkPair(a, b)]
}

// PartitionPair cuts delivery between a and b (both directions) until the
// pair heals. The maintained digest absorbs the change in O(1).
func (w *World) PartitionPair(a, b NodeID) {
	if a == b {
		return
	}
	k := mkPair(a, b)
	if w.partitioned[k] {
		return
	}
	w.ownPartitions()
	w.partitioned[k] = true
	if w.dig.valid {
		w.dig.partSum += pairHash(k)
	}
}

// HealPair restores delivery between a and b.
func (w *World) HealPair(a, b NodeID) {
	if a == b {
		return
	}
	k := mkPair(a, b)
	if !w.partitioned[k] {
		return
	}
	w.ownPartitions()
	delete(w.partitioned, k)
	if w.dig.valid {
		w.dig.partSum -= pairHash(k)
	}
}

// Partition cuts every pair between groups a and b, mirroring the live
// network's transport.Network.Partition.
func (w *World) Partition(a, b []NodeID) {
	for _, x := range a {
		for _, y := range b {
			w.PartitionPair(x, y)
		}
	}
}

// Heal removes every partition, mirroring the live network's
// transport.Network.Heal.
func (w *World) Heal() {
	for k := range w.partitioned {
		w.HealPair(k.a, k.b)
	}
}

// IsolateNode partitions id from every other node in the world — the
// explorer's linear-branching stand-in for arbitrary group partitions.
func (w *World) IsolateNode(id NodeID) {
	for _, other := range w.Nodes() {
		if other != id {
			w.PartitionPair(id, other)
		}
	}
}

// HealNode removes every partition involving id (including pairs cut by a
// group Partition).
func (w *World) HealNode(id NodeID) {
	for k := range w.partitioned {
		if k.a == id || k.b == id {
			w.HealPair(k.a, k.b)
		}
	}
}

// NodeIsolated reports whether id is partitioned from every other node.
func (w *World) NodeIsolated(id NodeID) bool {
	if len(w.partitioned) == 0 {
		return false
	}
	for _, other := range w.Nodes() {
		if other != id && w.Reachable(id, other) {
			return false
		}
	}
	return true
}

// partitionCutCounts returns, per node, the number of cut pairs the node
// participates in — one O(partitions) pass, so callers that classify every
// node (fault enumeration) avoid n × O(n) NodeIsolated scans. Nil when no
// partition is in effect.
func (w *World) partitionCutCounts() map[NodeID]int {
	if len(w.partitioned) == 0 {
		return nil
	}
	cuts := make(map[NodeID]int, len(w.partitioned))
	for k := range w.partitioned {
		cuts[k.a]++
		cuts[k.b]++
	}
	return cuts
}

// Partitioned reports whether any partition is in effect.
func (w *World) Partitioned() bool { return len(w.partitioned) > 0 }

// Crash fails node id inside the world: it goes down and its pending
// timers are cancelled, exactly as the live runtime's Cluster.Crash stops a
// node's timers. Messages already in flight stay in the channel — while
// the node is down the explorer never delivers them, and delivery attempts
// drop them, matching the live transport's down-endpoint behavior.
func (w *World) Crash(id NodeID) {
	i := w.slotOf(id)
	if i < 0 || w.slots[i].down {
		return
	}
	w.SetDown(id, true)
	// Cancel from the last: a shared list is copied once, without its last
	// name, and emptied in place.
	for t := w.slots[i].timers; len(t) > 0; t = w.slots[i].timers {
		w.setTimer(i, t[len(t)-1], false)
	}
}

// CanRestart reports whether a recovery hook could supply restart state
// for node id — the explorer gates reset branches on it so warm resets
// (which replay nothing new) are not enumerated. The check is clone-free:
// Recovery availability is answered by the HasRecovery probe when the
// installer provided one.
func (w *World) CanRestart(id NodeID) bool {
	if w.Initial != nil {
		return true
	}
	if w.Recovery == nil {
		return false
	}
	return w.HasRecovery == nil || w.HasRecovery(id)
}

// recoveryState resolves the state a crashed node restarts with: the
// Recovery hook's checkpoint if it yields one, a cold Initial state
// otherwise, nil (keep the pre-crash state — a warm restart) as the final
// fallback.
func (w *World) recoveryState(id NodeID) sm.Service {
	if w.Recovery != nil {
		if svc := w.Recovery(id); svc != nil {
			return svc
		}
	}
	if w.Initial != nil {
		return w.Initial(id)
	}
	return nil
}

// ReplaceService swaps in svc (which must already be a clone owned by the
// world) as node id's state, keeping the maintained digest coherent. The
// node must exist; use AddNode for new membership.
func (w *World) ReplaceService(id NodeID, svc sm.Service) {
	i := w.slotOf(id)
	if i < 0 {
		return
	}
	w.markDigestDirty(i)
	w.ownSlots()
	w.slots[i].svc, w.slots[i].svcOwned = svc, true
	w.step.forget() // no pre-image: the old service may be unrelated state
}

// Recover revives crashed node id and replays the service's Init through
// the world, so recovery protocols (rejoin requests, timer re-arming) run
// exactly as on a live restart. svc, if non-nil, replaces the service state
// (the caller hands ownership); nil resolves state via the Recovery and
// Initial hooks, keeping the pre-crash state when neither yields one. The
// messages Init produced are returned as the recovery's consequences.
func (w *World) Recover(id NodeID, svc sm.Service) []*sm.Msg {
	if !w.IsDown(id) {
		return nil
	}
	if svc == nil {
		svc = w.recoveryState(id)
	}
	w.SetDown(id, false)
	if svc != nil {
		w.ReplaceService(id, svc)
	}
	s := w.ownService(id)
	if s == nil {
		return nil
	}
	env := w.handlerEnv(id)
	s.Init(env)
	w.absorb(env.produced)
	return env.produced
}

// RemoveInflight deletes the in-flight message at index i. A world that
// owns its backing array (allocated it and never shared it onward —
// Freeze clears the mark before any sharing) compacts in place; on a
// shared set, the full-slice expression caps the prefix at len == cap,
// so appending a non-empty tail always reallocates (into the shell's
// spare backing when it fits). Appending an empty tail (i was the last
// index) returns the capped prefix itself — still never writable in
// place, but aliasing whatever backing array the slice had, so ownership
// is only claimed when a fresh array was made.
//
//crystalvet:cowwrite manual ownership protocol documented above: in-place compaction only under inflightOwned, shared slices go through capped-prefix append
func (w *World) RemoveInflight(i int) {
	if w.dig.valid {
		w.dig.inflightSum -= sm.Mix64(w.Inflight[i].Digest())
	}
	if w.sealed {
		w.unseal()
	}
	if w.inflightOwned {
		n := len(w.Inflight)
		copy(w.Inflight[i:], w.Inflight[i+1:])
		w.Inflight[n-1] = nil // keep the vacated slot collectible
		w.Inflight = w.Inflight[:n-1]
		return
	}
	rest := w.Inflight[i+1:]
	if len(rest) > 0 && cap(w.spareInflight) >= len(w.Inflight)-1 {
		cp := w.spareInflight[:0]
		w.spareInflight = nil
		cp = append(append(cp, w.Inflight[:i]...), rest...)
		w.Inflight = cp
		w.inflightOwned = true
		return
	}
	w.Inflight = append(w.Inflight[:i:i], rest...)
	if len(rest) > 0 {
		w.inflightOwned = true
	}
}

// WithPolicy returns the world itself after swapping the choice policy.
func (w *World) WithPolicy(p ChoicePolicy) *World {
	w.Policy = p
	return w
}

// Nodes returns the world's node IDs in ascending order: the world's
// maintained node order, shared across forks, so callers must treat it
// as read-only.
func (w *World) Nodes() []NodeID { return w.nodeOrder }

// SetDown marks node id as crashed (or revived), keeping the maintained
// digest coherent; it is a no-op for an id that is no node. A property's
// Step may read down flags, and a flip is no service write it is called
// for: the delta since the last checked state becomes unknown.
func (w *World) SetDown(id NodeID, down bool) {
	i := w.slotOf(id)
	if i < 0 || w.slots[i].down == down {
		return
	}
	w.ownSlots()
	w.slots[i].down = down
	w.markDigestDirty(i)
	w.step.forget()
}

// SetTimerPending marks node id's named timer as pending without executing
// anything, e.g. the triggering timer event of a lookahead. It is a no-op
// for an id that is no node.
func (w *World) SetTimerPending(id NodeID, name string) {
	if i := w.slotOf(id); i >= 0 {
		w.setTimer(i, name, true)
	}
}

// Digest returns a stable hash of the entire world, used for state
// deduplication during exploration.
//
// The digest is maintained incrementally: each node contributes a
// finalized component hash (identity, service digest, down flag, pending
// timer set) and the in-flight messages contribute a commutative multiset
// hash (the sum of their finalized per-message digests). The copy-on-write
// hooks record which node components a write invalidated, so consecutive
// exploration states — which differ by one handler invocation — re-hash
// only the changed pieces instead of the whole world. Maintenance starts
// at a world's first Digest call (forks of a digested world inherit it):
// until then writes cost no hashing at all, which is what a fault-free
// chain, the one search that never asks, relies on. DigestFull is the
// from-scratch recomputation of the same value.
func (w *World) Digest() uint64 {
	if !w.dig.valid {
		w.rebuildDigest()
	} else if len(w.dig.dirty) > 0 {
		w.flushDigestDirty()
	}
	return w.combineDigest(w.dig.nodeSum, w.dig.inflightSum, w.dig.partSum)
}

// DigestFull recomputes the world digest from scratch under the same
// scheme as Digest, consulting no caches (including the per-message memo).
// It is the ground truth the equivalence tests hold the maintained digest
// to; the engine itself deduplicates on Digest (EXPERIMENTS.md E12).
func (w *World) DigestFull() uint64 {
	var nodeSum uint64
	for i := range w.slots {
		nodeSum += w.nodeComponent(i)
	}
	var inflightSum uint64
	for _, m := range w.Inflight {
		inflightSum += sm.Mix64(sm.MsgDigestRecompute(m))
	}
	var partSum uint64
	for k := range w.partitioned {
		partSum += pairHash(k)
	}
	return w.combineDigest(nodeSum, inflightSum, partSum)
}

// combineDigest folds the three commutative sums and their cardinalities
// into the final world hash.
func (w *World) combineDigest(nodeSum, inflightSum, partSum uint64) uint64 {
	h := sm.NewHasher() // stays on the stack: no interface method sees it
	h.WriteInt(int64(len(w.slots))).WriteUint(nodeSum)
	h.WriteInt(int64(len(w.Inflight))).WriteUint(inflightSum)
	h.WriteInt(int64(len(w.partitioned))).WriteUint(partSum)
	return h.Sum()
}

// nodeComponent hashes slot i's digest component: node identity, service
// state, down flag, and pending timer set, finalized for commutative
// combination.
func (w *World) nodeComponent(i int) uint64 {
	s := &w.slots[i]
	h := sm.NewHasher() // stays on the stack: no interface method sees it
	h.WriteNode(w.nodeOrder[i])
	h.WriteUint(s.svc.Digest())
	h.WriteBool(s.down)
	h.WriteInt(int64(len(s.timers)))
	for _, name := range s.timers {
		h.WriteString(name)
	}
	return sm.Mix64(h.Sum())
}

// markDigestDirty records that slot i's digest component is stale. No-op
// until the world has been digested once (setup code mutates freely; the
// first Digest call builds the caches from scratch).
func (w *World) markDigestDirty(i int) {
	if !w.dig.valid {
		return
	}
	for _, d := range w.dig.dirty {
		if d == i {
			return
		}
	}
	if w.dig.dirty == nil && w.spareDirty != nil {
		// First dirty mark on this fork: reuse the shell's reclaimed
		// dirty-list backing instead of allocating one.
		w.dig.dirty = w.spareDirty[:0]
		w.spareDirty = nil
	}
	w.dig.dirty = append(w.dig.dirty, i)
}

// rebuildDigest computes the maintained digest from scratch — the first
// Digest call on a world that was not forked from an already-digested one.
func (w *World) rebuildDigest() {
	w.ownSlots()
	var nodeSum uint64
	for i := range w.slots {
		d := w.nodeComponent(i)
		w.slots[i].hash = d
		nodeSum += d
	}
	var inflightSum uint64
	for _, m := range w.Inflight {
		inflightSum += sm.Mix64(m.Digest())
	}
	var partSum uint64
	for k := range w.partitioned {
		partSum += pairHash(k)
	}
	w.dig = worldDigest{valid: true, nodeSum: nodeSum, inflightSum: inflightSum, partSum: partSum}
}

// flushDigestDirty re-hashes the components the COW hooks invalidated,
// adjusting the commutative node sum by the difference.
func (w *World) flushDigestDirty() {
	w.ownSlots()
	for _, i := range w.dig.dirty {
		nh := w.nodeComponent(i)
		w.dig.nodeSum += nh - w.slots[i].hash
		w.slots[i].hash = nh
	}
	w.dig.dirty = w.dig.dirty[:0]
}

// BodyDigester lets message bodies provide a stable digest. It is an alias
// of sm.BodyDigester, kept here because message digesting grew up in this
// package. Bodies that do not implement it are hashed via their fmt
// representation, which is stable for struct and scalar bodies (avoid maps
// in message bodies).
type BodyDigester = sm.BodyDigester

// worldEnv adapts a World to sm.Env for one handler invocation. Effects
// mutate the world: sends append to a staging buffer (exposed afterward as
// the causal consequences of the event), timer ops update the pending list.
type worldEnv struct {
	w         *World
	id        NodeID
	slot      int // id's slot in w
	choiceSeq int
	produced  []*sm.Msg // messages sent by this invocation
	logf      func(string, ...any)
}

func (e *worldEnv) ID() NodeID         { return e.id }
func (e *worldEnv) Now() time.Duration { return e.w.Now }
func (e *worldEnv) Logf(f string, a ...any) {
	if e.logf != nil {
		e.logf(f, a...)
	}
}

func (e *worldEnv) Send(dst NodeID, kind string, body any, size int) {
	m := &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size}
	e.produced = append(e.produced, m)
}

func (e *worldEnv) SendDatagram(dst NodeID, kind string, body any, size int) {
	// Exploration treats datagrams like messages that may be delivered;
	// loss is a separate branch the explorer takes when DropBranches is
	// enabled (the Unreliable mark drives that).
	m := &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size, Unreliable: true}
	e.produced = append(e.produced, m)
}

func (e *worldEnv) SetTimer(name string, d time.Duration) { e.w.setTimer(e.slot, name, true) }
func (e *worldEnv) CancelTimer(name string)               { e.w.setTimer(e.slot, name, false) }

func (e *worldEnv) Rand() *rand.Rand {
	if e.w.rngs == nil {
		e.w.rngs = make(map[NodeID]*rand.Rand)
	}
	r := e.w.rngs[e.id]
	if r == nil {
		r = rand.New(rand.NewSource(e.w.Seed*1315423911 + int64(e.id)))
		e.w.rngs[e.id] = r
	}
	return r
}

func (e *worldEnv) Choose(c sm.Choice) int {
	idx := e.w.Policy(e.id, c, e.choiceSeq)
	e.choiceSeq++
	if idx < 0 || idx >= c.N {
		idx = 0
	}
	return idx
}

// handlerEnv readies the world's reusable env scratch for one handler
// invocation on node id, which must be a node of the world. The env — and
// the produced slice handler-running methods return — is valid only until
// the next handler execution on this world; callers that need the
// messages longer copy them (the explorer snapshots them into the world's
// consequence scratch immediately).
func (w *World) handlerEnv(id NodeID) *worldEnv {
	e := &w.scratchEnv
	*e = worldEnv{w: w, id: id, slot: w.slotOf(id), produced: e.produced[:0]}
	return e
}

// DeliverMessage executes the handler for in-flight message index i,
// removing it from the channel and appending the messages it produces.
// It reports the produced messages; the slice is valid until the next
// handler execution on this world (see handlerEnv).
func (w *World) DeliverMessage(i int) []*sm.Msg {
	m := w.Inflight[i]
	w.RemoveInflight(i)
	if w.IsDown(m.Dst) || !w.Reachable(m.Src, m.Dst) {
		return nil
	}
	svc := w.ownService(m.Dst)
	if svc == nil {
		return nil
	}
	env := w.handlerEnv(m.Dst)
	svc.OnMessage(env, m)
	w.absorb(env.produced)
	return env.produced
}

// FireTimer executes node id's named timer handler, clearing its pending
// flag, and returns the messages produced (valid until the next handler
// execution on this world; see handlerEnv).
func (w *World) FireTimer(id NodeID, name string) []*sm.Msg {
	i := w.slotOf(id)
	if i < 0 {
		return nil
	}
	w.setTimer(i, name, false)
	if w.slots[i].down {
		return nil
	}
	svc := w.ownService(id)
	if svc == nil {
		return nil
	}
	env := w.handlerEnv(id)
	svc.OnTimer(env, name)
	w.absorb(env.produced)
	return env.produced
}

// InjectMessage places a message into the in-flight set without executing
// anything, e.g. the triggering event of a lookahead.
func (w *World) InjectMessage(m *sm.Msg) {
	w.ownInflight()
	w.Inflight = append(w.Inflight, m)
	// An unprimed world leaves the message's digest memo alone: the first
	// Digest fills it, and Explore takes that on the start world before any
	// worker can share the message.
	if w.dig.valid {
		w.dig.inflightSum += sm.Mix64(m.Digest())
	}
}

func (w *World) absorb(msgs []*sm.Msg) {
	for _, m := range msgs {
		if w.Generic == nil && w.slotOf(m.Dst) < 0 {
			// Destination outside the modeled neighborhood and no generic
			// node installed: drop rather than speculate (conservative
			// under-modeling).
			continue
		}
		w.ownInflight()
		w.Inflight = append(w.Inflight, m)
		// A run that maintains digests memoizes the message here, in the
		// worker that made it, before any fork can share it.
		if w.dig.valid {
			w.dig.inflightSum += sm.Mix64(m.Digest())
		}
	}
}

// FindInflight returns the index of the first in-flight message matching
// the predicate, or -1.
func (w *World) FindInflight(pred func(*sm.Msg) bool) int {
	for i, m := range w.Inflight {
		if pred(m) {
			return i
		}
	}
	return -1
}
