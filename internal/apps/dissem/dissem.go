// Package dissem implements the content-distribution example of paper
// §3.1: a swarm downloads a B-block file seeded at one node, and each peer
// repeatedly decides which missing block to request next. BulletPrime runs
// a rarest-random strategy, BitTorrent switches between random and
// rarest-first ad hoc; the paper's point is that neither choice is
// decidedly superior across deployment settings, so the decision should be
// exposed ("d.block") and resolved by the runtime.
//
// Strategies compared in experiment E6:
//
//   - random: request any available missing block;
//   - rarest: request the available missing block with the fewest known
//     owners (BulletPrime's strategy);
//   - crystalball: predictive resolution against AvailabilityObjective,
//     which rewards futures where block availability is both high and
//     evenly spread.
//
// NewExperiment (harness.go) is the app's one deployment builder — the
// setting's topology, the strategy's resolver, Deploy, start — which Run
// measures and the scenario lab (internal/scenario) translates its specs
// into; the caller's runtime settings arrive whole in
// ExperimentConfig.Runtime. RunToCompletion, the download loop, serves the
// tracker's swarm too.
package dissem

import (
	"math"
	"sort"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// Message kinds and timers.
const (
	KindAnnounce = "d.ann"      // sender now owns these blocks
	KindRequest  = "d.req"      // asks for one block
	KindPiece    = "d.piece"    // carries one block
	KindAddPeers = "d.addpeers" // extends the receiver's swarm (tracker grants)

	timerTick = "d.tick"
)

// TickEvery is the request-scheduling period.
const TickEvery = 50 * time.Millisecond

// Window is the maximum number of outstanding requests per peer.
const Window = 2

// Announce advertises ownership of blocks.
type Announce struct {
	Blocks []int
}

// DigestBody folds the body into a state digest.
func (a Announce) DigestBody(h *sm.Hasher) {
	h.WriteString("dann").WriteInt(int64(len(a.Blocks)))
	for _, b := range a.Blocks {
		h.WriteInt(int64(b))
	}
}

// Request asks the receiver for a block.
type Request struct {
	Block int
}

// DigestBody folds the body into a state digest.
func (r Request) DigestBody(h *sm.Hasher) { h.WriteString("dreq").WriteInt(int64(r.Block)) }

// Piece delivers a block.
type Piece struct {
	Block int
}

// DigestBody folds the body into a state digest.
func (p Piece) DigestBody(h *sm.Hasher) { h.WriteString("dpc").WriteInt(int64(p.Block)) }

// AddPeers extends the receiver's swarm — how a tracker introduces peers
// to each other (the P4P example of paper §3.1).
type AddPeers struct {
	Peers []sm.NodeID
}

// DigestBody folds the body into a state digest.
func (a AddPeers) DigestBody(h *sm.Hasher) {
	h.WriteString("dadd").WriteNodes(a.Peers)
}

// Peer is one swarm participant.
type Peer struct {
	ID        sm.NodeID
	NumBlocks int
	BlockSize int
	Swarm     []sm.NodeID
	// Have marks owned blocks.
	Have []bool
	// Owners[b] is the set of peers known to own block b.
	Owners []map[sm.NodeID]bool
	// Pending maps in-flight requested blocks to the peer asked.
	Pending map[int]sm.NodeID
	// Candidates is the block list behind the most recent exposed choice,
	// kept in state so app-specific resolvers (rarest) can interpret the
	// choice indices.
	Candidates []int
	// CompletedAt is set when the last block arrives.
	CompletedAt time.Duration
	done        bool

	// RequestPeers, when set, is invoked (rate-limited) on scheduler
	// ticks where the peer is incomplete but has nothing actionable —
	// empty swarm or no known owner for any missing block. Deployments
	// wire it to their discovery mechanism (e.g. a tracker).
	RequestPeers func(env sm.Env)
	lastDiscover time.Duration
}

// New creates a peer. If seed, it starts owning every block.
func New(id sm.NodeID, swarm []sm.NodeID, numBlocks, blockSize int, seed bool) *Peer {
	p := &Peer{
		ID:        id,
		NumBlocks: numBlocks,
		BlockSize: blockSize,
		Swarm:     sm.CloneNodes(swarm),
		Have:      make([]bool, numBlocks),
		Owners:    make([]map[sm.NodeID]bool, numBlocks),
		Pending:   make(map[int]sm.NodeID),
	}
	for b := range p.Owners {
		p.Owners[b] = make(map[sm.NodeID]bool)
	}
	if seed {
		for b := range p.Have {
			p.Have[b] = true
		}
		p.done = true
	}
	return p
}

// ProtocolName identifies the protocol in traces.
func (p *Peer) ProtocolName() string { return "dissem" }

// Neighbors returns the checkpoint neighborhood (the swarm).
func (p *Peer) Neighbors() []sm.NodeID { return sm.CloneNodes(p.Swarm) }

// Init announces initial ownership and starts the scheduler.
func (p *Peer) Init(env sm.Env) {
	if owned := p.owned(); len(owned) > 0 {
		for _, peer := range p.Swarm {
			env.Send(peer, KindAnnounce, Announce{Blocks: owned}, 4*len(owned)+16)
		}
	}
	env.SetTimer(timerTick, TickEvery)
}

// OnTimer schedules the next request(s), falling back to peer discovery
// when nothing is actionable.
func (p *Peer) OnTimer(env sm.Env, name string) {
	if name != timerTick {
		return
	}
	for len(p.Pending) < Window {
		if !p.requestNext(env) {
			break
		}
	}
	if p.RequestPeers != nil && !p.complete() && len(p.Pending) == 0 &&
		len(p.candidateBlocks()) == 0 && env.Now()-p.lastDiscover >= 500*time.Millisecond {
		p.lastDiscover = env.Now()
		p.RequestPeers(env)
	}
	env.SetTimer(timerTick, TickEvery)
}

// requestNext exposes the block choice and issues one request; it reports
// whether a request was issued.
func (p *Peer) requestNext(env sm.Env) bool {
	cands := p.candidateBlocks()
	if len(cands) == 0 {
		return false
	}
	p.Candidates = cands
	i := env.Choose(sm.Choice{Name: "d.block", N: len(cands)})
	block := cands[i]
	owner := p.pickOwner(env, block)
	if owner < 0 {
		return false
	}
	p.Pending[block] = owner
	env.Send(owner, KindRequest, Request{Block: block}, 16)
	return true
}

// candidateBlocks lists missing, non-pending blocks with a known owner.
func (p *Peer) candidateBlocks() []int {
	var out []int
	for b := 0; b < p.NumBlocks; b++ {
		if p.Have[b] {
			continue
		}
		if _, inflight := p.Pending[b]; inflight {
			continue
		}
		if len(p.Owners[b]) > 0 {
			out = append(out, b)
		}
	}
	return out
}

// pickOwner selects uniformly among known owners of the block; owner
// selection is held fixed across strategies so experiment E6 isolates the
// block choice.
func (p *Peer) pickOwner(env sm.Env, block int) sm.NodeID {
	owners := sm.SortedNodes(p.Owners[block])
	if len(owners) == 0 {
		return -1
	}
	return owners[env.Rand().Intn(len(owners))]
}

// OnMessage handles protocol messages.
func (p *Peer) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case KindAnnounce:
		for _, b := range m.Body.(Announce).Blocks {
			if b >= 0 && b < p.NumBlocks {
				p.Owners[b][m.Src] = true
			}
		}
	case KindRequest:
		b := m.Body.(Request).Block
		if b >= 0 && b < p.NumBlocks && p.Have[b] {
			env.Send(m.Src, KindPiece, Piece{Block: b}, p.BlockSize)
		}
	case KindAddPeers:
		for _, peer := range m.Body.(AddPeers).Peers {
			p.addPeer(env, peer)
		}
	case KindPiece:
		b := m.Body.(Piece).Block
		if b < 0 || b >= p.NumBlocks || p.Have[b] {
			delete(p.Pending, b)
			return
		}
		p.Have[b] = true
		p.Owners[b][p.ID] = true
		delete(p.Pending, b)
		for _, peer := range p.Swarm {
			env.Send(peer, KindAnnounce, Announce{Blocks: []int{b}}, 20)
		}
		if p.complete() && !p.done {
			p.done = true
			p.CompletedAt = env.Now()
			env.Logf("complete at %v", env.Now())
		}
	}
}

// addPeer joins peer to the swarm (idempotent) and advertises our blocks.
func (p *Peer) addPeer(env sm.Env, peer sm.NodeID) {
	if peer == p.ID {
		return
	}
	for _, known := range p.Swarm {
		if known == peer {
			return
		}
	}
	p.Swarm = append(p.Swarm, peer)
	if owned := p.owned(); len(owned) > 0 {
		env.Send(peer, KindAnnounce, Announce{Blocks: owned}, 4*len(owned)+16)
	}
}

// ExposesChoice declares where the block choice is made
// (sm.ChoiceSites): the scheduler tick alone.
func (p *Peer) ExposesChoice(msgKind, timer string) bool { return timer == timerTick }

// OnConnDown clears pending requests to the dead peer.
func (p *Peer) OnConnDown(env sm.Env, peer sm.NodeID) {
	for b, owner := range p.Pending {
		if owner == peer {
			delete(p.Pending, b)
		}
	}
	for b := range p.Owners {
		delete(p.Owners[b], peer)
	}
}

// complete reports whether all blocks are owned.
func (p *Peer) complete() bool {
	for _, h := range p.Have {
		if !h {
			return false
		}
	}
	return true
}

// Complete reports download completion (exported for harnesses).
func (p *Peer) Complete() bool { return p.done && p.complete() }

// owned returns the sorted owned block IDs.
func (p *Peer) owned() []int {
	var out []int
	for b, h := range p.Have {
		if h {
			out = append(out, b)
		}
	}
	return out
}

// Clone deep-copies the peer.
func (p *Peer) Clone() sm.Service {
	c := *p
	c.Swarm = sm.CloneNodes(p.Swarm)
	c.Have = append([]bool(nil), p.Have...)
	c.Owners = make([]map[sm.NodeID]bool, len(p.Owners))
	for b, set := range p.Owners {
		c.Owners[b] = sm.CloneNodeSet(set)
	}
	c.Pending = make(map[int]sm.NodeID, len(p.Pending))
	for b, o := range p.Pending {
		c.Pending[b] = o
	}
	c.Candidates = append([]int(nil), p.Candidates...)
	return &c
}

// Digest returns the stable state hash.
func (p *Peer) Digest() uint64 {
	h := sm.NewHasher()
	h.WriteNode(p.ID).WriteInt(int64(p.NumBlocks))
	for b, have := range p.Have {
		if have {
			h.WriteInt(int64(b))
		}
	}
	pend := make([]int, 0, len(p.Pending))
	for b := range p.Pending {
		pend = append(pend, b)
	}
	sort.Ints(pend)
	h.WriteInt(int64(len(pend)))
	for _, b := range pend {
		h.WriteInt(int64(b)).WriteNode(p.Pending[b])
	}
	for b, set := range p.Owners {
		if len(set) > 0 {
			h.WriteInt(int64(b)).WriteNodeSet(set)
		}
	}
	return h.Sum()
}

// Rarest is BulletPrime's strategy expressed as a resolver: among the
// exposed candidate blocks, request one with the fewest known owners,
// breaking ties randomly (rarest-random).
type Rarest struct{}

// Name returns "rarest".
func (Rarest) Name() string { return "rarest" }

// Resolve picks the rarest candidate block.
func (Rarest) Resolve(n *core.Node, c sm.Choice) int {
	p, ok := n.Service().(*Peer)
	if !ok || len(p.Candidates) != c.N || c.N == 0 {
		return 0
	}
	best := math.MaxInt
	var ties []int
	for i, b := range p.Candidates {
		owners := len(p.Owners[b])
		if owners < best {
			best = owners
			ties = ties[:0]
		}
		if owners == best {
			ties = append(ties, i)
		}
	}
	return ties[n.Rand().Intn(len(ties))]
}

// AvailabilityObjective rewards futures where total block availability is
// high and rare blocks have been replicated: each block contributes
// log2(1+copies), so an additional copy of a rare block is worth more than
// another copy of a common one. In-flight requests count half.
func AvailabilityObjective(n *core.Node) explore.Objective {
	return explore.ObjectiveFunc{ObjectiveName: "d.availability", Fn: func(w *explore.World) float64 {
		copies := map[int]float64{}
		for _, id := range w.Nodes() {
			p, ok := w.Service(id).(*Peer)
			if !ok {
				continue
			}
			for b, have := range p.Have {
				if have {
					copies[b]++
				}
			}
			for b := range p.Pending {
				copies[b] += 0.5
			}
		}
		score := 0.0
		for _, c := range copies {
			score += math.Log2(1 + c)
		}
		return score
	}}
}
