// Package model maintains the predictive system model of paper §3.3: a
// network model (passively inferred latency/bandwidth/loss estimates with
// confidence that decays with age) and a state model (the freshest known
// checkpoints of other participants). The runtime keeps one Model per node
// and feeds it measurements and checkpoints; choice resolvers consult it to
// build lookahead worlds and to score network-sensitive objectives.
package model

import (
	"math"
	"sort"
	"time"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// NodeID aliases sm.NodeID.
type NodeID = sm.NodeID

// PeerEstimate is the inferred quality of the path to one peer.
type PeerEstimate struct {
	Latency      time.Duration
	BandwidthBps float64
	Loss         float64
	Samples      int
	LastUpdate   time.Duration
}

// NetEstimator passively infers network conditions from observed traffic
// (paper §3.3.1: "explicitly probing ... or by passively inferring").
type NetEstimator struct {
	// Alpha is the EWMA weight of a new sample (0,1]. Default 0.25.
	Alpha float64
	// ConfidenceTau controls how fast confidence decays with estimate age:
	// confidence = exp(-age/tau). Default 30s.
	ConfidenceTau time.Duration

	// near holds the estimates of IDs below nearIDs, indexed by ID and
	// grown to the largest one observed, far those of every other ID: a
	// delivery's lookup is an index, not a map probe. An entry with no
	// samples is an unknown peer.
	near []PeerEstimate
	far  map[NodeID]*PeerEstimate
}

// nearIDs bounds the dense table at 40 KB; larger and negative IDs go to
// the far map.
const nearIDs = 1024

// NewNetEstimator returns an estimator with default smoothing.
func NewNetEstimator() *NetEstimator {
	return &NetEstimator{Alpha: 0.25, ConfidenceTau: 30 * time.Second, far: make(map[NodeID]*PeerEstimate)}
}

// peer returns id's estimate for writing, creating it if needed.
func (e *NetEstimator) peer(id NodeID) *PeerEstimate {
	if uint(id) < nearIDs {
		if int(id) >= len(e.near) {
			e.near = append(e.near, make([]PeerEstimate, int(id)+1-len(e.near))...)
		}
		return &e.near[id]
	}
	p := e.far[id]
	if p == nil {
		p = &PeerEstimate{}
		e.far[id] = p
	}
	return p
}

// lookup returns id's estimate, or nil if it has no samples.
func (e *NetEstimator) lookup(id NodeID) *PeerEstimate {
	var p *PeerEstimate
	if uint(id) < uint(len(e.near)) {
		p = &e.near[id]
	} else {
		p = e.far[id]
	}
	if p == nil || p.Samples == 0 {
		return nil
	}
	return p
}

// ObserveLatency folds one latency sample for the path to peer, observed at
// virtual time now.
func (e *NetEstimator) ObserveLatency(peer NodeID, d time.Duration, now time.Duration) {
	p := e.peer(peer)
	if p.Samples == 0 || p.Latency == 0 {
		p.Latency = d
	} else {
		p.Latency = time.Duration(float64(p.Latency)*(1-e.Alpha) + float64(d)*e.Alpha)
	}
	p.Samples++
	p.LastUpdate = now
}

// ObserveBandwidth folds one throughput sample (bytes/sec) for peer.
func (e *NetEstimator) ObserveBandwidth(peer NodeID, bps float64, now time.Duration) {
	if bps <= 0 {
		return
	}
	p := e.peer(peer)
	if p.BandwidthBps == 0 {
		p.BandwidthBps = bps
	} else {
		p.BandwidthBps = p.BandwidthBps*(1-e.Alpha) + bps*e.Alpha
	}
	p.Samples++
	p.LastUpdate = now
}

// ObserveLoss folds a loss indication (lost=true) for datagrams to peer.
func (e *NetEstimator) ObserveLoss(peer NodeID, lost bool, now time.Duration) {
	p := e.peer(peer)
	sample := 0.0
	if lost {
		sample = 1.0
	}
	p.Loss = p.Loss*(1-e.Alpha) + sample*e.Alpha
	p.Samples++
	p.LastUpdate = now
}

// Estimate returns the current estimate for peer and its confidence in
// [0,1]; ok is false if no samples exist.
func (e *NetEstimator) Estimate(peer NodeID, now time.Duration) (PeerEstimate, float64, bool) {
	p := e.lookup(peer)
	if p == nil {
		return PeerEstimate{}, 0, false
	}
	age := now - p.LastUpdate
	if age < 0 {
		age = 0
	}
	conf := math.Exp(-float64(age) / float64(e.ConfidenceTau))
	return *p, conf, true
}

// Latency returns the latency estimate for peer, or def if unknown.
func (e *NetEstimator) Latency(peer NodeID, def time.Duration) time.Duration {
	if p := e.lookup(peer); p != nil && p.Latency > 0 {
		return p.Latency
	}
	return def
}

// Known returns the peers with at least one sample, ascending.
func (e *NetEstimator) Known() []NodeID {
	ids := make([]NodeID, 0, len(e.near)+len(e.far))
	for id := range e.near {
		if e.near[id].Samples > 0 {
			ids = append(ids, NodeID(id))
		}
	}
	for id, p := range e.far {
		if p.Samples > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// StateEntry is a retained remote-state checkpoint.
type StateEntry struct {
	State sm.Service
	At    time.Duration
	Epoch uint64
}

// Fresher reports whether e comes after o in checkpoint freshness order: a
// later epoch, or the same epoch captured later. It is the one order every
// choice between two checkpoints of a node follows.
func (e StateEntry) Fresher(o StateEntry) bool {
	return e.Epoch > o.Epoch || (e.Epoch == o.Epoch && e.At > o.At)
}

// StateModel retains the freshest known checkpoint per participant. It is
// a node's only checkpoint store: each entry is the state a checkpoint
// response delivered, held once and never written — the standing world
// borrows it frozen, and Recovery hooks and Snapshot clone it before
// handing it out.
type StateModel struct {
	entries map[NodeID]StateEntry
	// standing is the world Model.BuildWorld forks; nil until the first
	// call and after a change to which entries a world would model.
	standing *standing
}

// standing is a model's lookahead world kept between decisions: frozen and
// never digested (a fork digests itself if asked), holding a placeholder
// for the owner and, by reference, the retained state of every peer a
// world built at a time inside (after, until] models. An entry is never written once retained and a frozen
// world clones before it writes, so nothing needs copying; Update swaps a
// fresher checkpoint in (explore.World.Patch), and a peer entering or
// leaving — a first checkpoint, Forget, an entry crossing MaxAge — drops
// the world for the next BuildWorld to rebuild.
type standing struct {
	w      *explore.World
	owner  NodeID
	maxAge time.Duration
	// after is the latest instant at which an entry left out was still
	// fresh, until the earliest at which one of those modeled goes stale.
	// Update only ever lowers until: it may call for a rebuild that finds
	// the same peers, never miss one that would not.
	after, until time.Duration
}

// ownerSlot holds the owner's place in a standing world. Every fork
// replaces it with the state the caller brings, so the world retains no
// state of the owner's.
type ownerSlot struct{}

func (ownerSlot) Init(sm.Env)               {}
func (ownerSlot) OnMessage(sm.Env, *sm.Msg) {}
func (ownerSlot) OnTimer(sm.Env, string)    {}
func (o ownerSlot) Clone() sm.Service       { return o }
func (ownerSlot) Digest() uint64            { return 0 }

// NewStateModel returns an empty state model.
func NewStateModel() *StateModel {
	return &StateModel{entries: make(map[NodeID]StateEntry)}
}

// Update retains svc as the entry for id unless the retained one is
// Fresher; an equally fresh checkpoint replaces it. svc is taken as it is
// — the clone a checkpoint response delivered, owned by the model from
// here on and never written again — so a stale one costs nothing.
func (m *StateModel) Update(id NodeID, svc sm.Service, at time.Duration, epoch uint64) {
	e := StateEntry{State: svc, At: at, Epoch: epoch}
	if cur, ok := m.entries[id]; ok && cur.Fresher(e) {
		return
	}
	m.entries[id] = e
	s := m.standing
	if s == nil || id == s.owner {
		return
	}
	if s.w.Service(id) == nil {
		m.standing = nil // a new peer, or one that was too stale to model
		return
	}
	s.w.Patch(id, svc)
	if s.maxAge > 0 {
		s.until = min(s.until, at+s.maxAge)
	}
}

// Get returns the entry for id.
func (m *StateModel) Get(id NodeID) (StateEntry, bool) {
	e, ok := m.entries[id]
	return e, ok
}

// Forget discards the entry for id.
func (m *StateModel) Forget(id NodeID) {
	delete(m.entries, id)
	m.standing = nil
}

// Known returns the IDs with retained state, ascending.
func (m *StateModel) Known() []NodeID {
	ids := make([]NodeID, 0, len(m.entries))
	for id := range m.entries {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Age returns how stale the entry for id is at virtual time now.
func (m *StateModel) Age(id NodeID, now time.Duration) (time.Duration, bool) {
	e, ok := m.entries[id]
	if !ok {
		return 0, false
	}
	age := now - e.At
	if age < 0 {
		age = 0
	}
	return age, true
}

// Snapshot is a consistent set of neighborhood checkpoints plus the
// collector's own state.
type Snapshot struct {
	Origin NodeID
	// Epoch is the newest epoch every neighbor has answered; zero unless
	// Complete.
	Epoch uint64
	// States maps node -> checkpointed service clone. Includes Origin.
	States map[NodeID]sm.Service
	At     map[NodeID]time.Duration
	// Complete reports whether every neighbor has a retained checkpoint.
	Complete bool
}

// Snapshot assembles origin's neighborhood snapshot: self, a clone of
// origin's state captured at now that the snapshot takes over, plus a clone
// of every retained peer entry. Every state in it is safe to hand to an
// explore.World.
func (m *StateModel) Snapshot(origin NodeID, self sm.Service, now time.Duration, neighbors []NodeID) Snapshot {
	s := Snapshot{
		Origin: origin,
		States: map[NodeID]sm.Service{origin: self},
		At:     map[NodeID]time.Duration{origin: now},
	}
	oldest, all := ^uint64(0), true
	for _, nb := range neighbors {
		if nb == origin {
			continue
		}
		e, ok := m.entries[nb]
		if !ok {
			all = false
			break
		}
		oldest = min(oldest, e.Epoch)
	}
	if all && oldest != ^uint64(0) {
		s.Epoch, s.Complete = oldest, true
	}
	for id, e := range m.entries {
		if id != origin {
			s.States[id], s.At[id] = e.State.Clone(), e.At
		}
	}
	return s
}

// Model bundles the network and state models for one node.
type Model struct {
	Owner NodeID
	Net   *NetEstimator
	State *StateModel
	// MaxAge excludes state-model entries older than this from lookahead
	// worlds (paper §3.3.2: confidence as a function of information age).
	// Zero means no age filter.
	MaxAge time.Duration

	// lookNow is the origin instant of the latest BuildWorld. The recovery
	// hooks every world shares answer for it, built once per model so that
	// a world costs no closures (see BuildWorld).
	lookNow     time.Duration
	recovery    func(NodeID) sm.Service
	hasRecovery func(NodeID) bool
}

// New returns an empty model for the given node.
func New(owner NodeID) *Model {
	m := &Model{Owner: owner, Net: NewNetEstimator(), State: NewStateModel()}
	// Fault lookaheads recover crashed nodes from the freshest retained
	// checkpoint — the loop the paper draws between checkpoint exchange
	// and prediction. The hooks are called from exploration workers, so
	// they only read the entry map (not mutated while a lookahead runs)
	// and hand out clones.
	m.hasRecovery = func(id NodeID) bool {
		e, ok := m.State.entries[id]
		return ok && m.fresh(e, m.lookNow)
	}
	m.recovery = func(id NodeID) sm.Service {
		if !m.hasRecovery(id) {
			return nil
		}
		return m.State.entries[id].State.Clone()
	}
	return m
}

// fresh reports whether entry e is young enough at now to be modeled.
func (m *Model) fresh(e StateEntry, now time.Duration) bool {
	return m.MaxAge <= 0 || now-e.At <= m.MaxAge
}

// standingAt returns the standing world for a lookahead at now, building
// it when there is none or the one there is models other peers than a
// world built at now would.
func (m *Model) standingAt(now time.Duration) *explore.World {
	if s := m.State.standing; s != nil && s.owner == m.Owner && s.maxAge == m.MaxAge &&
		s.after < now && now <= s.until {
		return s.w
	}
	s := &standing{w: explore.NewWorld(nil, 0), owner: m.Owner, maxAge: m.MaxAge,
		after: math.MinInt64, until: math.MaxInt64}
	s.w.AddNode(m.Owner, ownerSlot{})
	for id, e := range m.State.entries {
		switch {
		case id == m.Owner:
		case !m.fresh(e, now):
			// Too stale to trust (likely departed or partitioned).
			s.after = max(s.after, e.At+m.MaxAge)
		default:
			if m.MaxAge > 0 {
				s.until = min(s.until, e.At+m.MaxAge)
			}
			s.w.AddNode(id, e.State)
		}
	}
	s.w.Freeze()
	m.State.standing = s
	return s.w
}

// BuildWorld assembles a lookahead world from the state model: the caller's
// own (pre-event) state plus every retained neighbor checkpoint no older
// than MaxAge. selfState must already be a clone owned by the caller; the
// world takes ownership. The neighbor states are the model's own, shared
// copy-on-write: the world is a fork of the model's standing world and
// clones one before a handler writes it. now is the virtual time of the
// lookahead's origin. The world's recovery hooks restart a crashed node
// from its entry if that is fresh at now — as of the latest BuildWorld, so
// explore a world before building the next at another instant.
func (m *Model) BuildWorld(selfState sm.Service, now time.Duration, policy explore.ChoicePolicy, seed int64) *explore.World {
	if policy == nil {
		policy = explore.FirstPolicy
	}
	w := m.standingAt(now).ForkWith(m.Owner, selfState)
	w.Policy, w.Seed, w.Now = policy, seed, now
	m.lookNow = now
	w.Recovery, w.HasRecovery = m.recovery, m.hasRecovery
	return w
}
