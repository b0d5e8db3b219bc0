// Package gossip implements the epidemic dissemination example of paper
// §3.1: nodes periodically pick a partner from their view and run a
// push-pull anti-entropy exchange. The partner selection is the exposed
// choice ("g.peer").
//
// Three resolution strategies reproduce the BAR Gossip discussion:
//
//   - Random (core.Random): the classic uniform partner choice;
//   - Restricted (this package): BAR-Gossip-style — every node follows the
//     same verifiable deterministic partner schedule, one partner per
//     round. Reliability-friendly, but if the scheduled target sits behind
//     a slow link the whole round stalls, and the shared schedule convoys
//     everyone onto the same partner;
//   - Predictive (core.NewPredictive + SpreadObjective): CrystalBall picks
//     the partner whose exchange is predicted to spread the most new
//     information per unit of predicted latency.
//
// A Peer forks in O(1) (DESIGN.md §2.4.1), because the live runtime clones
// it on every interposed delivery and every checkpoint: its held updates
// are a sorted slice that is replaced, never written, so clones and
// message bodies share it, a digest hashes it without sorting and a
// digest or delta is answered by merging two sorted lists; the receipt log
// is shared behind a shared mark until a clone writes it.
//
// NewExperiment (harness.go) is the app's one deployment builder — the
// network (slow nodes, dynamics), the strategy's resolver, Deploy, start —
// which Run measures and the scenario lab (internal/scenario) translates
// its specs into; each publishes on its own schedule. The caller's runtime
// settings arrive whole in ExperimentConfig.Runtime.
package gossip

import (
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// Message kinds and timers.
const (
	KindDigest  = "g.digest"
	KindDelta   = "g.delta"
	KindPublish = "g.publish"

	timerRound = "g.round"
)

// RoundEvery is the gossip round period.
const RoundEvery = 200 * time.Millisecond

// Digest advertises the sender's update set. Update lists in message
// bodies are sorted ascending without duplicates and may be the sender's
// own held slice: receivers read them, never write them.
type Digest struct {
	Have []int
}

// DigestBody folds the body into a state digest.
func (d Digest) DigestBody(h *sm.Hasher) {
	h.WriteString("gdig").WriteInt(int64(len(d.Have)))
	for _, u := range d.Have {
		h.WriteInt(int64(u))
	}
}

// Delta carries updates the receiver lacks, plus the sender's own digest so
// the receiver can complete the pull half of the exchange.
type Delta struct {
	Updates []int
	Have    []int
}

// DigestBody folds the body into a state digest.
func (d Delta) DigestBody(h *sm.Hasher) {
	h.WriteString("gdel").WriteInt(int64(len(d.Updates)))
	for _, u := range d.Updates {
		h.WriteInt(int64(u))
	}
	h.WriteInt(int64(len(d.Have)))
	for _, u := range d.Have {
		h.WriteInt(int64(u))
	}
}

// Publish introduces a new update at the receiving node.
type Publish struct {
	Update int
}

// DigestBody folds the body into a state digest.
func (p Publish) DigestBody(h *sm.Hasher) { h.WriteString("gpub").WriteInt(int64(p.Update)) }

// Peer is one gossip participant.
type Peer struct {
	ID   sm.NodeID
	View []sm.NodeID // immutable, shared by clones
	// held is the set of known update IDs, sorted ascending. It is never
	// written in place — add replaces it — so Clone, Digest{Have} and
	// Delta{Have} share it.
	held []int
	// ExchangingWith marks the partner of the in-progress exchange (-1
	// when idle). It is part of the state deliberately: lookahead
	// objectives use it to charge the predicted link cost of the choice.
	ExchangingWith sm.NodeID
	// Received logs (update, time) on first receipt for the harness; its
	// keys are held's. Clones share the map until one of them writes: read
	// it freely, write it only through add.
	Received map[int]time.Duration
	// receivedShared is Received's shared mark (see sm.IntMap): set once
	// the map is reachable from two peers, replaced with the map.
	receivedShared *atomic.Bool
}

// New creates a gossip peer with the given view.
func New(id sm.NodeID, view []sm.NodeID) *Peer {
	return &Peer{
		ID:             id,
		View:           sm.CloneNodes(view),
		ExchangingWith: -1,
		Received:       make(map[int]time.Duration),
		receivedShared: new(atomic.Bool),
	}
}

// ProtocolName identifies the protocol in traces.
func (p *Peer) ProtocolName() string { return "gossip" }

// Neighbors returns the checkpoint neighborhood (the view).
func (p *Peer) Neighbors() []sm.NodeID { return sm.CloneNodes(p.View) }

// Init starts the round timer.
func (p *Peer) Init(env sm.Env) {
	env.SetTimer(timerRound, RoundEvery)
}

// OnTimer runs one gossip round: choose a partner, send our digest.
func (p *Peer) OnTimer(env sm.Env, name string) {
	if name != timerRound {
		return
	}
	if len(p.View) > 0 {
		i := env.Choose(sm.Choice{
			Name:  "g.peer",
			N:     len(p.View),
			Label: func(i int) string { return p.View[i].String() },
		})
		partner := p.View[i]
		p.ExchangingWith = partner
		env.Send(partner, KindDigest, Digest{Have: p.held}, 4*len(p.held)+16)
	}
	env.SetTimer(timerRound, RoundEvery)
}

// OnMessage handles protocol messages.
func (p *Peer) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case KindPublish:
		p.add(env.Now(), m.Body.(Publish).Update)
	case KindDigest:
		d := m.Body.(Digest)
		missing := p.missingFrom(d.Have)
		env.Send(m.Src, KindDelta, Delta{Updates: missing, Have: p.held}, 32*len(missing)+4*len(p.held)+16)
	case KindDelta:
		d := m.Body.(Delta)
		// The sender computed what we lack from our digest; absorb it.
		p.add(env.Now(), d.Updates...)
		// Pull half: send the partner what it lacks per its digest.
		// Known defect, kept on purpose (ROADMAP, "exchange never terminates"):
		// this Delta carries no Have, so its receiver echoes back all it holds.
		missing := p.missingFrom(d.Have)
		if len(missing) > 0 {
			env.Send(m.Src, KindDelta, Delta{Updates: missing}, 32*len(missing)+16)
		}
		if m.Src == p.ExchangingWith {
			p.ExchangingWith = -1
		}
	}
}

// add learns the updates of us (sorted, as in a message body) not yet
// held, logging their receipt at `at`: one merge into a fresh held slice,
// and a private copy of Received first if a clone still shares it.
func (p *Peer) add(at time.Duration, us ...int) {
	fresh := subtract(us, p.held, nil)
	if fresh == 0 {
		return
	}
	if p.receivedShared.Load() {
		p.Received = maps.Clone(p.Received)
		p.receivedShared = new(atomic.Bool)
	}
	merged := make([]int, 0, len(p.held)+fresh)
	i := 0
	for _, u := range us {
		for i < len(p.held) && p.held[i] < u {
			merged = append(merged, p.held[i])
			i++
		}
		if i < len(p.held) && p.held[i] == u {
			continue
		}
		merged = append(merged, u)
		p.Received[u] = at
	}
	p.held = append(merged, p.held[i:]...)
}

// has reports whether update u is held.
func (p *Peer) has(u int) bool {
	_, ok := slices.BinarySearch(p.held, u)
	return ok
}

// missingFrom returns our updates absent from theirs, sorted, allocating
// only the result. When theirs is empty that is everything we hold: the
// held slice itself, since message bodies are never written.
func (p *Peer) missingFrom(theirs []int) []int {
	if len(theirs) == 0 {
		return p.held
	}
	n := subtract(p.held, theirs, nil)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	subtract(p.held, theirs, out)
	return out
}

// subtract walks the sorted lists a and b in step and counts the elements
// of a absent from b, writing them to out unless out is nil.
func subtract(a, b, out []int) int {
	n, j := 0, 0
	for _, u := range a {
		for j < len(b) && b[j] < u {
			j++
		}
		if j < len(b) && b[j] == u {
			continue
		}
		if out != nil {
			out[n] = u
		}
		n++
	}
	return n
}

// OnConnDown is a no-op: gossip tolerates broken links by design.
func (p *Peer) OnConnDown(env sm.Env, peer sm.NodeID) {}

// ExposesChoice declares where the partner choice is made
// (sm.ChoiceSites): the round timer alone.
func (p *Peer) ExposesChoice(msgKind, timer string) bool { return timer == timerRound }

// Clone forks the peer in O(1): held and View are shared for good, Received
// until either side writes. All it writes to p is the shared mark, so p may
// be mutated right afterwards, and one peer that nobody writes may be cloned
// from several goroutines at once.
func (p *Peer) Clone() sm.Service {
	c := *p
	if !p.receivedShared.Load() {
		p.receivedShared.Store(true)
	}
	return &c
}

// Digest returns the stable state hash: ID, View, ExchangingWith, then the
// held updates' count and IDs in ascending order.
func (p *Peer) Digest() uint64 { return p.digestOf(p.held) }

func (p *Peer) digestOf(held []int) uint64 {
	h := sm.NewHasher()
	h.WriteNode(p.ID).WriteNodes(p.View).WriteNode(p.ExchangingWith)
	h.WriteInt(int64(len(held)))
	for _, u := range held {
		h.WriteInt(int64(u))
	}
	return h.Sum()
}

// DigestOracle is Digest recomputed from the sorted keys of Received,
// ignoring held: the test oracle for add, for the cross-application
// invariant battery in the root package. It also checks held's own
// invariants — strictly ascending, shared rather than copied by Clone —
// and returns a value Digest cannot equal when one fails. Tests only.
func DigestOracle(p *Peer) uint64 {
	for i := 1; i < len(p.held); i++ {
		if p.held[i-1] >= p.held[i] {
			return ^p.Digest()
		}
	}
	if c := p.Clone().(*Peer); len(p.held) > 0 && &c.held[0] != &p.held[0] {
		return ^p.Digest()
	}
	return p.digestOf(slices.Sorted(maps.Keys(p.Received)))
}

// Restricted is the BAR-Gossip-style resolver: partner selection follows a
// fixed, globally known schedule — one designated partner per round,
// identical position in everyone's schedule. (In BAR Gossip the schedule
// is derived from a verifiable PRF so rational nodes cannot deviate; the
// performance consequence is the same.)
type Restricted struct {
	round int
}

// Name returns "restricted".
func (*Restricted) Name() string { return "restricted" }

// Resolve returns the scheduled partner index for this round.
func (r *Restricted) Resolve(n *core.Node, c sm.Choice) int {
	if c.N <= 0 {
		return 0
	}
	i := r.round % c.N
	r.round++
	return i
}

// SpreadObjective scores a world by information spread minus the predicted
// cost of the links being used: each node in mid-exchange is charged its
// estimated latency to the partner. The node's own network model supplies
// the estimates — this is the paper's network model feeding choice
// resolution.
func SpreadObjective(n *core.Node) explore.Objective {
	// One second of predicted link latency is worth one update of spread:
	// strong enough to shun pathologically slow partners, weak enough
	// that a partner holding fresh updates is always worth visiting.
	const lambda = 6.0
	return explore.ObjectiveFunc{ObjectiveName: "g.spread", Fn: func(w *explore.World) float64 {
		spread := 0.0
		cost := 0.0
		for _, id := range w.Nodes() {
			p, ok := w.Service(id).(*Peer)
			if !ok {
				continue
			}
			spread += float64(len(p.held))
			if p.ExchangingWith >= 0 {
				est := n.Model().Net.Latency(p.ExchangingWith, 50*time.Millisecond)
				cost += est.Seconds()
			}
		}
		return spread - lambda*cost
	}}
}
