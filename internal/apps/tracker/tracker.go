// Package tracker implements the BitTorrent-tracker example of paper §3.1:
// "the BitTorrent nodes connect to a random subset of the existing
// participants ... potential peers are chosen via an external interface,
// i.e., a remote tracker ... it was fairly straightforward to manipulate
// the peer choice made by the tracker [P4P] to bias it in a way that
// reduces ISP costs. Here, exposing the choice made it easy to improve
// system performance and meet ISP goals."
//
// The Tracker service maintains the registry of swarm participants. When a
// peer asks for an introduction set, the tracker exposes each grant slot
// as a choice ("tr.grant") over the eligible candidates. Resolvers:
//
//   - core.Random: the classic tracker — a random subset;
//   - Locality (this package): the P4P-style resolver that grants
//     same-ISP candidates with high probability, keeping enough remote
//     edges that the ISPs' swarms stay connected.
//
// The experiment measures cross-ISP traffic and completion time of a
// dissem swarm whose peer discovery goes through the tracker.
//
// NewExperiment (harness.go) is the app's one deployment builder — the
// two-ISP dumbbell, the policy's resolver, Deploy, start and enrollment —
// which Run measures and the scenario lab (internal/scenario) translates
// its specs into; the caller's runtime settings arrive whole in
// ExperimentConfig.Runtime.
package tracker

import (
	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/core"
	"crystalchoice/internal/sm"
)

// Message kinds.
const (
	KindRegister = "tr.register" // peer -> tracker: join the registry
	KindGetPeers = "tr.get"      // peer -> tracker: request introductions
)

// Register enrolls the sender.
type Register struct{}

// DigestBody folds the body into a state digest.
func (Register) DigestBody(h *sm.Hasher) { h.WriteString("treg") }

// GetPeers asks for up to K introductions.
type GetPeers struct {
	K int
}

// DigestBody folds the body into a state digest.
func (g GetPeers) DigestBody(h *sm.Hasher) { h.WriteString("trget").WriteInt(int64(g.K)) }

// ISPOf maps a node to its ISP (autonomous system). The experiment uses
// cluster membership; the type keeps the tracker testable without one.
type ISPOf func(id sm.NodeID) int

// Tracker is the registry service. It does not itself join the swarm.
type Tracker struct {
	ID         sm.NodeID
	Registered map[sm.NodeID]bool
	// Candidates holds, during a grant, the eligible candidate list behind
	// the exposed choice, so app-specific resolvers (Locality) can
	// interpret choice indices — the same pattern dissem.Rarest uses.
	Candidates []sm.NodeID
	// Requester is the peer being served (state, for resolvers).
	Requester sm.NodeID
}

// New creates a tracker with the given node identity.
func New(id sm.NodeID) *Tracker {
	return &Tracker{ID: id, Registered: make(map[sm.NodeID]bool)}
}

// ProtocolName identifies the protocol in traces.
func (t *Tracker) ProtocolName() string { return "tracker" }

// Init is a no-op; trackers are driven by requests.
func (t *Tracker) Init(env sm.Env) {}

// OnMessage serves registry traffic.
func (t *Tracker) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case KindRegister:
		t.Registered[m.Src] = true
	case KindGetPeers:
		t.serve(env, m.Src, m.Body.(GetPeers).K)
	}
}

// serve grants up to k introductions, each an exposed choice over the
// remaining eligible candidates.
func (t *Tracker) serve(env sm.Env, requester sm.NodeID, k int) {
	eligible := make([]sm.NodeID, 0, len(t.Registered))
	for _, id := range sm.SortedNodes(t.Registered) {
		if id != requester {
			eligible = append(eligible, id)
		}
	}
	var grant []sm.NodeID
	t.Requester = requester
	for len(grant) < k && len(eligible) > 0 {
		t.Candidates = eligible
		i := env.Choose(sm.Choice{
			Name:  "tr.grant",
			N:     len(eligible),
			Label: func(i int) string { return eligible[i].String() },
		})
		if i < 0 || i >= len(eligible) {
			i = 0
		}
		grant = append(grant, eligible[i])
		eligible = append(eligible[:i:i], eligible[i+1:]...)
	}
	t.Candidates = nil
	t.Requester = -1
	if len(grant) > 0 {
		env.Send(requester, dissem.KindAddPeers, dissem.AddPeers{Peers: grant}, 4*len(grant)+16)
		// Introductions are bidirectional, as with real trackers (the
		// granted peer learns the requester when it connects).
		for _, g := range grant {
			env.Send(g, dissem.KindAddPeers, dissem.AddPeers{Peers: []sm.NodeID{requester}}, 20)
		}
	}
}

// OnTimer is a no-op.
func (t *Tracker) OnTimer(env sm.Env, name string) {}

// OnConnDown drops the peer from the registry.
func (t *Tracker) OnConnDown(env sm.Env, peer sm.NodeID) {
	delete(t.Registered, peer)
}

// ExposesChoice declares where the grant choices are made
// (sm.ChoiceSites): a request for introductions alone.
func (t *Tracker) ExposesChoice(msgKind, timer string) bool { return msgKind == KindGetPeers }

// Clone deep-copies the tracker.
func (t *Tracker) Clone() sm.Service {
	c := *t
	c.Registered = sm.CloneNodeSet(t.Registered)
	c.Candidates = sm.CloneNodes(t.Candidates)
	return &c
}

// Digest returns the stable state hash.
func (t *Tracker) Digest() uint64 {
	return sm.NewHasher().WriteNode(t.ID).WriteNodeSet(t.Registered).WriteNodes(t.Candidates).Sum()
}

// Locality is the P4P-style resolver: it grants a peer from the
// requester's own ISP with probability LocalBias, and a remote peer
// otherwise — biased toward keeping traffic inside the ISP without
// disconnecting the ISPs' swarms from each other (rare blocks still only
// exist remotely at the start).
type Locality struct {
	ISP ISPOf
	// LocalBias is the probability of granting a same-ISP candidate when
	// one exists. Zero means the default 0.9.
	LocalBias float64
}

// Name returns "locality".
func (Locality) Name() string { return "locality" }

// Resolve prefers same-ISP candidates with probability LocalBias.
func (l Locality) Resolve(n *core.Node, c sm.Choice) int {
	t, ok := n.Service().(*Tracker)
	if !ok || l.ISP == nil || len(t.Candidates) != c.N || c.N == 0 {
		return 0
	}
	bias := l.LocalBias
	if bias == 0 {
		bias = 0.9
	}
	home := l.ISP(t.Requester)
	var local, remote []int
	for i, cand := range t.Candidates {
		if l.ISP(cand) == home {
			local = append(local, i)
		} else {
			remote = append(remote, i)
		}
	}
	pool := local
	if len(local) == 0 || (len(remote) > 0 && n.Rand().Float64() >= bias) {
		pool = remote
	}
	return pool[n.Rand().Intn(len(pool))]
}
