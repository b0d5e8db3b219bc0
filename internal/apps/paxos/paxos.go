// Package paxos implements the consensus example of paper §3.1: a
// multi-instance Paxos state machine in which the choice of proposer is
// exposed to the runtime.
//
// Every node plays all three roles (proposer, acceptor, learner). To keep
// concurrent proposers from dueling, the instance space is partitioned by
// proposer identity (instance = slot*N + proposer), the same ownership
// discipline Mencius uses. A client command enters at an arbitrary node;
// that node chooses the proposer ("px.proposer") and forwards the command;
// the proposer runs both Paxos phases and broadcasts the decision.
//
// Proposer policies of experiment E7:
//
//   - fixed: the classic deployment default — node 0 proposes everything;
//   - roundrobin: Mencius' static rotation;
//   - crystalball: predictive resolution against LatencyObjective, which
//     charges every open proposal its proposer's predicted quorum round
//     trips (network predictions served by the iPlane).
//
// NewExperiment (harness.go) is the app's one deployment builder — WAN or
// uniform topology, the policy's resolver, Deploy, start and the command
// client — which Run measures and the scenario lab (internal/scenario)
// translates its specs into; the caller's runtime settings arrive whole in
// ExperimentConfig.Runtime.
package paxos

import (
	"maps"
	"math/bits"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crystalchoice/internal/sm"
)

// Message kinds and timers.
const (
	KindSubmit   = "px.submit"
	KindPropose  = "px.propose"
	KindPrepare  = "px.prepare"
	KindPromise  = "px.promise"
	KindAccept   = "px.accept"
	KindAccepted = "px.accepted"
	KindLearn    = "px.learn"

	timerRetryPrefix    = "px.retry."
	timerResubmitPrefix = "px.resubmit."
)

// retryAfter is the per-instance proposal retry timeout.
const retryAfter = 2 * time.Second

// resubmitAfter is how long the submitting node waits for its command to
// be learned before routing it again (possibly to a different proposer —
// the exposed choice is made afresh on every attempt).
const resubmitAfter = 3 * time.Second

// timerCPU drains the proposer's work queue when WorkDelay > 0.
const timerCPU = "px.cpu"

// Cmd is a replicated command.
type Cmd struct {
	ID       int
	Origin   sm.NodeID
	SubmitAt time.Duration
}

// DigestBody folds the body into a state digest.
func (c Cmd) DigestBody(h *sm.Hasher) {
	h.WriteString("cmd").WriteInt(int64(c.ID)).WriteNode(c.Origin).WriteInt(int64(c.SubmitAt))
}

// Submit introduces a command at any node.
type Submit struct{ Cmd Cmd }

// DigestBody folds the body into a state digest.
func (s Submit) DigestBody(h *sm.Hasher) { s.Cmd.DigestBody(h) }

// Propose hands a command to the chosen proposer.
type Propose struct{ Cmd Cmd }

// DigestBody folds the body into a state digest.
func (p Propose) DigestBody(h *sm.Hasher) { p.Cmd.DigestBody(h) }

// Prepare is Paxos phase-1a.
type Prepare struct {
	Inst   int
	Ballot int
}

// DigestBody folds the body into a state digest.
func (p Prepare) DigestBody(h *sm.Hasher) {
	h.WriteString("p1a").WriteInt(int64(p.Inst)).WriteInt(int64(p.Ballot))
}

// Promise is Paxos phase-1b.
type Promise struct {
	Inst      int
	Ballot    int
	AccBallot int  // highest ballot accepted before the promise, -1 if none
	AccVal    *Cmd // value accepted under AccBallot
}

// DigestBody folds the body into a state digest.
func (p Promise) DigestBody(h *sm.Hasher) {
	h.WriteString("p1b").WriteInt(int64(p.Inst)).WriteInt(int64(p.Ballot)).WriteInt(int64(p.AccBallot))
	if p.AccVal != nil {
		p.AccVal.DigestBody(h)
	}
}

// Accept is Paxos phase-2a.
type Accept struct {
	Inst   int
	Ballot int
	Val    Cmd
}

// DigestBody folds the body into a state digest.
func (a Accept) DigestBody(h *sm.Hasher) {
	h.WriteString("p2a").WriteInt(int64(a.Inst)).WriteInt(int64(a.Ballot))
	a.Val.DigestBody(h)
}

// Accepted is Paxos phase-2b.
type Accepted struct {
	Inst   int
	Ballot int
}

// DigestBody folds the body into a state digest.
func (a Accepted) DigestBody(h *sm.Hasher) {
	h.WriteString("p2b").WriteInt(int64(a.Inst)).WriteInt(int64(a.Ballot))
}

// Learn broadcasts a decision.
type Learn struct {
	Inst int
	Val  Cmd
}

// DigestBody folds the body into a state digest.
func (l Learn) DigestBody(h *sm.Hasher) {
	h.WriteString("lrn").WriteInt(int64(l.Inst))
	l.Val.DigestBody(h)
}

// MaxReplicas bounds the deployment size: a vote set is one 64-bit mask.
const MaxReplicas = 64

// nodeSet is a set of node IDs below MaxReplicas. An ID outside that range
// is never a member, so a message from a non-replica cannot vote.
type nodeSet uint64

func (s *nodeSet) add(id sm.NodeID) { *s |= 1 << uint(id) }

func (s nodeSet) len() int { return bits.OnesCount64(uint64(s)) }

// accState is the acceptor's per-instance record. Like propState it is a
// plain value: the instance containers copy entries by assignment, so no
// field may be a pointer, map or slice.
type accState struct {
	Promised  int
	AccBallot int  // highest ballot accepted, -1 if none
	HasAcc    bool // AccVal was accepted under AccBallot
	AccVal    Cmd
}

// propState tracks an open proposal owned by this node.
type propState struct {
	Val      Cmd
	Ballot   int
	Promises nodeSet
	// HighestAcc tracks the highest-ballot previously accepted value seen
	// in promises, which Paxos obliges the proposer to adopt.
	HighestAccBallot int
	HasHighestAcc    bool
	HighestAccVal    Cmd
	Accepts          nodeSet
	Phase            int // 1 or 2
	Done             bool
}

// value returns what the proposal must propose: the adopted value if any
// promise carried one, else its own command.
func (p *propState) value() Cmd {
	if p.HasHighestAcc {
		return p.HighestAccVal
	}
	return p.Val
}

// Replica is one Paxos participant (proposer+acceptor+learner).
//
// The three per-instance containers are never truncated, so they are
// persistent maps (Clone forks them in O(1)) and Digest does not walk
// them: decidedSum, propSum and accSum each hold the sum of their
// container's per-entry hashes, kept current by putDecided, putProp and
// putAcc, the only writers.
type Replica struct {
	ID    sm.NodeID
	N     int
	Peers []sm.NodeID // all nodes including self; immutable, shared by clones

	NextSlot int
	props    sm.IntMap[propState] // keyed by slot: read it through prop
	acc      sm.IntMap[accState]
	decided  sm.IntMap[Cmd]

	decidedSum, propSum, accSum uint64

	// DecidedAt records, at the command's origin, when the decision was
	// learned (the commit latency numerator for experiment E7). Clones
	// share the map until one of them writes: read it freely, write it
	// only through recordDecidedAt.
	DecidedAt map[int]time.Duration
	// decidedAtShared is DecidedAt's shared mark (see sm.IntMap): set once
	// the map is reachable from two replicas, replaced with the map.
	decidedAtShared *atomic.Bool
	// PendingCmds tracks commands this node submitted that are not yet
	// learned; they are re-routed after resubmitAfter (client retry). Nil
	// while there are none: onSubmit allocates it. Clones share it, and
	// workQueue, until one of them writes either: read them freely, call
	// ownQueues before a write.
	PendingCmds map[int]Cmd
	// queuesShared is the shared mark of PendingCmds and workQueue, like
	// decidedAtShared.
	queuesShared *atomic.Bool
	// OpenProposals counts in-flight proposals per proposer as known to
	// this node; the latency objective reads it from checkpoints.
	openLocal int

	// WorkDelay models proposer CPU cost per proposal (paper §3.1: a
	// static leader "can suffer from reduced performance due to CPU
	// overload"). When positive, each new proposal queues for WorkDelay
	// of processing before its phase-1 broadcast goes out; a loaded
	// proposer therefore serializes.
	WorkDelay time.Duration
	workQueue []int // instances awaiting CPU
	cpuBusy   bool
}

// New creates a replica among n nodes, at most MaxReplicas.
func New(id sm.NodeID, n int) *Replica {
	if n > MaxReplicas {
		panic("paxos: " + strconv.Itoa(n) + " replicas exceed MaxReplicas")
	}
	peers := make([]sm.NodeID, n)
	for i := range peers {
		peers[i] = sm.NodeID(i)
	}
	return &Replica{
		ID:              id,
		N:               n,
		Peers:           peers,
		DecidedAt:       make(map[int]time.Duration),
		decidedAtShared: new(atomic.Bool),
		queuesShared:    new(atomic.Bool),
	}
}

// ProtocolName identifies the protocol in traces.
func (r *Replica) ProtocolName() string { return "paxos" }

// Init is a no-op: replicas are driven by submissions.
func (r *Replica) Init(env sm.Env) {}

// majority returns the quorum size.
func (r *Replica) majority() int { return r.N/2 + 1 }

// OnMessage dispatches protocol messages.
func (r *Replica) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case KindSubmit:
		r.onSubmit(env, m.Body.(Submit).Cmd)
	case KindPropose:
		r.startProposal(env, m.Body.(Propose).Cmd)
	case KindPrepare:
		r.onPrepare(env, m.Src, m.Body.(Prepare))
	case KindPromise:
		r.onPromise(env, m.Src, m.Body.(Promise))
	case KindAccept:
		r.onAccept(env, m.Src, m.Body.(Accept))
	case KindAccepted:
		r.onAccepted(env, m.Src, m.Body.(Accepted))
	case KindLearn:
		r.onLearn(env, m.Body.(Learn))
	}
}

// onSubmit exposes the proposer choice and routes the command, arming the
// client-retry timer when this node is the command's origin.
func (r *Replica) onSubmit(env sm.Env, cmd Cmd) {
	if cmd.Origin == r.ID {
		if _, done := r.DecidedAt[cmd.ID]; done {
			return // already learned; stale resubmission
		}
		r.ownQueues()
		if r.PendingCmds == nil {
			r.PendingCmds = make(map[int]Cmd)
		}
		r.PendingCmds[cmd.ID] = cmd
		env.SetTimer(resubmitTimer(cmd.ID), resubmitAfter)
	}
	i := env.Choose(sm.Choice{
		Name:  "px.proposer",
		N:     len(r.Peers),
		Label: func(i int) string { return r.Peers[i].String() },
	})
	proposer := r.Peers[i]
	if proposer == r.ID {
		r.startProposal(env, cmd)
		return
	}
	env.Send(proposer, KindPropose, Propose{Cmd: cmd}, 48)
}

// startProposal opens a new instance owned by this node and runs phase 1
// (immediately, or after queued CPU work when WorkDelay is set).
func (r *Replica) startProposal(env sm.Env, cmd Cmd) {
	inst := r.NextSlot*r.N + int(r.ID)
	r.NextSlot++
	r.putProp(inst, propState{Val: cmd, Ballot: int(r.ID) + 1, HighestAccBallot: -1, Phase: 1})
	r.openLocal++
	if r.WorkDelay > 0 {
		r.ownQueues()
		r.workQueue = append(r.workQueue, inst)
		if !r.cpuBusy {
			r.cpuBusy = true
			env.SetTimer(timerCPU, r.WorkDelay)
		}
		return
	}
	r.broadcastPrepare(env, inst)
}

// broadcastPrepare issues the phase-1 round for an owned instance.
func (r *Replica) broadcastPrepare(env sm.Env, inst int) {
	prop, open := r.prop(inst)
	if !open || prop.Done {
		return
	}
	for _, p := range r.Peers {
		env.Send(p, KindPrepare, Prepare{Inst: inst, Ballot: prop.Ballot}, 24)
	}
	env.SetTimer(retryTimer(inst), retryAfter)
}

func retryTimer(inst int) string { return timerName(timerRetryPrefix, inst) }

func resubmitTimer(cmdID int) string { return timerName(timerResubmitPrefix, cmdID) }

func timerName(prefix string, n int) string {
	b := append(make([]byte, 0, 32), prefix...)
	return string(strconv.AppendInt(b, int64(n), 10))
}

// timerArg parses the number out of a name timerName built.
func timerArg(name, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	return n, err == nil
}

// onPrepare is the acceptor's phase-1b.
func (r *Replica) onPrepare(env sm.Env, src sm.NodeID, p Prepare) {
	a := r.acceptor(p.Inst)
	if p.Ballot <= a.Promised && a.Promised != 0 {
		return // already promised a higher (or equal) ballot: ignore
	}
	a.Promised = p.Ballot
	r.putAcc(p.Inst, a)
	var accVal *Cmd
	if a.HasAcc {
		v := a.AccVal
		accVal = &v
	}
	env.Send(src, KindPromise, Promise{
		Inst:      p.Inst,
		Ballot:    p.Ballot,
		AccBallot: a.AccBallot,
		AccVal:    accVal,
	}, 32)
}

// acceptor returns the acceptor record of inst, the initial one if this
// node has not heard of inst.
func (r *Replica) acceptor(inst int) accState {
	a, had := r.acc.Get(inst)
	if !had {
		a.AccBallot = -1
	}
	return a
}

// onPromise gathers phase-1b votes and moves to phase 2 on quorum.
func (r *Replica) onPromise(env sm.Env, src sm.NodeID, p Promise) {
	prop, open := r.prop(p.Inst)
	if !open || prop.Done || prop.Phase != 1 || p.Ballot != prop.Ballot {
		return
	}
	prop.Promises.add(src)
	if p.AccBallot > prop.HighestAccBallot && p.AccVal != nil {
		prop.HighestAccBallot = p.AccBallot
		prop.HasHighestAcc, prop.HighestAccVal = true, *p.AccVal
	}
	quorum := prop.Promises.len() >= r.majority()
	if quorum {
		prop.Phase = 2
	}
	r.putProp(p.Inst, prop)
	if !quorum {
		return
	}
	val := prop.value() // obligation: adopt highest accepted
	for _, peer := range r.Peers {
		env.Send(peer, KindAccept, Accept{Inst: p.Inst, Ballot: prop.Ballot, Val: val}, 56)
	}
}

// onAccept is the acceptor's phase-2b.
func (r *Replica) onAccept(env sm.Env, src sm.NodeID, a Accept) {
	if a.Ballot < r.acceptor(a.Inst).Promised {
		return
	}
	r.putAcc(a.Inst, accState{Promised: a.Ballot, AccBallot: a.Ballot, HasAcc: true, AccVal: a.Val})
	env.Send(src, KindAccepted, Accepted{Inst: a.Inst, Ballot: a.Ballot}, 24)
}

// onAccepted gathers phase-2b votes; on quorum the value is decided.
func (r *Replica) onAccepted(env sm.Env, src sm.NodeID, a Accepted) {
	prop, open := r.prop(a.Inst)
	if !open || prop.Done || prop.Phase != 2 || a.Ballot != prop.Ballot {
		return
	}
	prop.Accepts.add(src)
	prop.Done = prop.Accepts.len() >= r.majority()
	r.putProp(a.Inst, prop)
	if !prop.Done {
		return
	}
	if r.openLocal > 0 {
		r.openLocal--
	}
	env.CancelTimer(retryTimer(a.Inst))
	val := prop.value()
	for _, peer := range r.Peers {
		env.Send(peer, KindLearn, Learn{Inst: a.Inst, Val: val}, 56)
	}
}

// onLearn installs a decision.
func (r *Replica) onLearn(env sm.Env, l Learn) {
	if _, dup := r.decided.Get(l.Inst); dup {
		return
	}
	r.putDecided(l.Inst, l.Val)
	if l.Val.Origin == r.ID {
		if _, seen := r.DecidedAt[l.Val.ID]; !seen {
			r.recordDecidedAt(l.Val.ID, env.Now())
		}
		if _, pending := r.PendingCmds[l.Val.ID]; pending {
			r.ownQueues()
			delete(r.PendingCmds, l.Val.ID)
		}
		env.CancelTimer(resubmitTimer(l.Val.ID))
	}
}

// recordDecidedAt writes DecidedAt, first taking a private copy if a clone
// still shares the map.
func (r *Replica) recordDecidedAt(cmdID int, at time.Duration) {
	if r.decidedAtShared.Load() {
		r.DecidedAt = maps.Clone(r.DecidedAt)
		r.decidedAtShared = new(atomic.Bool)
	}
	r.DecidedAt[cmdID] = at
}

// ownQueues takes private copies of PendingCmds and workQueue if a clone
// still shares them. An emptied Go map keeps the tables it grew, and
// maps.Clone would copy them: an empty map is dropped, not cloned.
func (r *Replica) ownQueues() {
	if !r.queuesShared.Load() {
		return
	}
	if len(r.PendingCmds) > 0 {
		r.PendingCmds = maps.Clone(r.PendingCmds)
	} else {
		r.PendingCmds = nil
	}
	r.workQueue = append([]int(nil), r.workQueue...)
	r.queuesShared = new(atomic.Bool)
}

// OnTimer drains queued proposer work, resubmits unlearned commands, and
// retries stalled proposals.
func (r *Replica) OnTimer(env sm.Env, name string) {
	if cmdID, ok := timerArg(name, timerResubmitPrefix); ok {
		if cmd, pending := r.PendingCmds[cmdID]; pending {
			r.onSubmit(env, cmd) // choose a proposer afresh
		}
		return
	}
	if name == timerCPU {
		if len(r.workQueue) > 0 {
			inst := r.workQueue[0]
			r.workQueue = r.workQueue[1:]
			r.broadcastPrepare(env, inst)
		}
		if len(r.workQueue) > 0 {
			env.SetTimer(timerCPU, r.WorkDelay)
		} else {
			r.cpuBusy = false
		}
		return
	}
	inst, ok := timerArg(name, timerRetryPrefix)
	if !ok {
		return
	}
	prop, open := r.prop(inst)
	if !open || prop.Done {
		return
	}
	prop.Ballot += r.N
	prop.Phase = 1
	prop.Promises, prop.Accepts = 0, 0
	r.putProp(inst, prop)
	for _, p := range r.Peers {
		env.Send(p, KindPrepare, Prepare{Inst: inst, Ballot: prop.Ballot}, 24)
	}
	env.SetTimer(name, retryAfter)
}

// OnConnDown is a no-op: Paxos tolerates lost messages via retry.
func (r *Replica) OnConnDown(env sm.Env, peer sm.NodeID) {}

// ExposesChoice declares where the proposer choice is made
// (sm.ChoiceSites): a submission, and the timer that resubmits it.
func (r *Replica) ExposesChoice(msgKind, timer string) bool {
	return msgKind == KindSubmit || strings.HasPrefix(timer, timerResubmitPrefix)
}

// OpenProposals returns the number of proposals this node is driving.
func (r *Replica) OpenProposals() int { return r.openLocal }

// DecidedCount returns the number of instances this node has learned.
func (r *Replica) DecidedCount() int { return r.decided.Len() }

// Clone forks the replica in O(1): the instance containers, DecidedAt,
// PendingCmds and workQueue are shared until either side writes, Peers for
// good. All it writes to r are shared marks (see sm.IntMap), so r may be
// mutated right afterwards, and one replica that nobody writes may be
// cloned from several goroutines at once.
func (r *Replica) Clone() sm.Service {
	c := *r
	c.props = r.props.Clone()
	c.acc = r.acc.Clone()
	c.decided = r.decided.Clone()
	if !r.decidedAtShared.Load() {
		r.decidedAtShared.Store(true)
	}
	if !r.queuesShared.Load() {
		r.queuesShared.Store(true)
	}
	return &c
}

// Per-entry hashes of the maintained digest. Each chains the fields the
// digest covers through sm.Mix64 from its container's own seed, so the
// last step finalises the hash for summing.
const (
	decidedSeed = 0x64656369646564 // "decided"
	propSeed    = 0x70726f70       // "prop"
	accSeed     = 0x616363         // "acc"
)

func fold(h uint64, x int) uint64 { return sm.Mix64(h ^ uint64(x)) }

func decidedHash(inst int, v Cmd) uint64 {
	return fold(fold(fold(decidedSeed, inst), v.ID), int(v.Origin))
}

func propHash(inst int, p propState) uint64 {
	flags := p.Phase << 1
	if p.Done {
		flags |= 1
	}
	h := fold(fold(fold(propSeed, inst), p.Ballot), flags)
	return fold(fold(h, p.Promises.len()), p.Accepts.len())
}

func accHash(inst int, a accState) uint64 {
	return fold(fold(fold(accSeed, inst), a.Promised), a.AccBallot)
}

// put stores v under k and moves sum from the hash of the entry it
// replaces, if any, to v's.
func put[V any](m *sm.IntMap[V], sum *uint64, hash func(int, V) uint64, k int, v V) {
	if old, had := m.Get(k); had {
		*sum -= hash(k, old)
	}
	*sum += hash(k, v)
	m.Put(k, v)
}

func (r *Replica) putDecided(inst int, v Cmd) { put(&r.decided, &r.decidedSum, decidedHash, inst, v) }

// prop returns the proposal of inst and whether it is open. Only this
// node's own instances can be, and props is keyed by the proposer's slot
// (inst-ID)/N rather than by inst: a proposer owns every N-th instance,
// and dense keys fill the trie's leaves.
func (r *Replica) prop(inst int) (propState, bool) {
	d := inst - int(r.ID)
	if d < 0 || d%r.N != 0 {
		return propState{}, false
	}
	return r.props.Get(d / r.N)
}

// putProp stores the proposal of an instance this node owns. Its hash
// covers inst, not the slot, so the digest does not depend on the keying.
func (r *Replica) putProp(inst int, p propState) {
	slot := (inst - int(r.ID)) / r.N
	if old, had := r.props.Get(slot); had {
		r.propSum -= propHash(inst, old)
	}
	r.propSum += propHash(inst, p)
	r.props.Put(slot, p)
}

func (r *Replica) putAcc(inst int, a accState) { put(&r.acc, &r.accSum, accHash, inst, a) }

// Digest returns the stable state hash in time independent of the log's
// length: a header and the three maintained sums.
func (r *Replica) Digest() uint64 {
	return r.combineDigest(r.decidedSum, r.propSum, r.accSum)
}

// digestFull is Digest recomputed from the containers, ignoring the
// maintained sums: the test oracle for the writers above.
func (r *Replica) digestFull() uint64 {
	var decidedSum, propSum, accSum uint64
	for inst, v := range r.decided.All {
		decidedSum += decidedHash(inst, v)
	}
	for slot, p := range r.props.All {
		propSum += propHash(slot*r.N+int(r.ID), p)
	}
	for inst, a := range r.acc.All {
		accSum += accHash(inst, a)
	}
	return r.combineDigest(decidedSum, propSum, accSum)
}

// DigestOracle is digestFull for the cross-application invariant battery
// in the root package, which an export_test.go cannot reach. Tests only.
func DigestOracle(r *Replica) uint64 { return r.digestFull() }

func (r *Replica) combineDigest(decidedSum, propSum, accSum uint64) uint64 {
	h := sm.NewHasher()
	h.WriteNode(r.ID).WriteInt(int64(r.N)).WriteInt(int64(r.NextSlot)).WriteInt(int64(r.openLocal))
	h.WriteInt(int64(len(r.workQueue))).WriteBool(r.cpuBusy).WriteInt(int64(len(r.PendingCmds)))
	h.WriteInt(int64(r.decided.Len())).WriteUint(decidedSum)
	h.WriteInt(int64(r.props.Len())).WriteUint(propSum)
	h.WriteInt(int64(r.acc.Len())).WriteUint(accSum)
	return h.Sum()
}
