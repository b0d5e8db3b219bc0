package randtree

import (
	"crystalchoice/internal/sm"
)

// Baseline is the released-RandTree style implementation: the join-routing
// strategy is hard-coded into the message handler, interleaving the basic
// algorithm with an embedded policy — accept-or-push-down probabilities,
// power-of-two-choices child sampling, least-loaded tie-breaks — each
// consulting the pseudo-random number generator inline. This is the
// "complex logic and random choices" shape the paper describes (§3.1) and
// the E1 code-metrics baseline.
type Baseline struct {
	state
}

// NewBaseline returns a baseline node. root is the rendezvous node.
func NewBaseline(id, root sm.NodeID) *Baseline {
	return &Baseline{state: newState(id, root)}
}

// ProtocolName identifies the variant in traces.
func (s *Baseline) ProtocolName() string { return "randtree-baseline" }

// Init starts the protocol.
func (s *Baseline) Init(env sm.Env) { s.initNode(env) }

// Neighbors exposes the checkpoint neighborhood (parent + children).
func (s *Baseline) Neighbors() []sm.NodeID { return s.state.neighbors() }

// OnMessage dispatches protocol messages.
func (s *Baseline) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case KindJoin:
		s.onJoin(env, m)
	case KindJoinReply:
		s.state.onJoinReply(env, m)
	case KindSummary:
		s.state.onSummary(env, m)
	case KindHeartbeat:
		s.state.onHeartbeat(env, m)
	}
}

// onJoin is the baseline join handler: basic algorithm and routing policy
// fused together. Its branching density is what experiment E1 measures.
func (s *Baseline) onJoin(env sm.Env, m *sm.Msg) {
	j := m.Body.(Join)
	if j.Joiner == s.ID {
		// Our own join bounced back through stale links; retry at root.
		if !s.Joined && !s.isRoot() {
			env.Send(s.Root, KindJoin, j, msgSize)
		}
		return
	}
	if !s.Joined {
		if s.isRoot() {
			// Cold root: adopt directly.
			s.accept(env, j.Joiner)
		} else {
			// Not positioned yet: we cannot place anyone; punt to root.
			env.Send(s.Root, KindJoin, j, msgSize)
		}
		return
	}
	if s.hasChild(j.Joiner) {
		// Duplicate join from an existing child (lost reply): re-grant.
		env.Send(j.Joiner, KindJoinReply, JoinReply{Parent: s.ID, Depth: s.Depth + 1}, msgSize)
		return
	}
	if j.Joiner == s.Parent {
		// Our parent is rejoining below us: avoid a cycle; push to root
		// unless we are the root.
		if s.isRoot() {
			s.accept(env, j.Joiner)
		} else {
			env.Send(s.Root, KindJoin, j, msgSize)
		}
		return
	}
	kids := s.childIDs()
	if s.hasSpace() {
		if len(kids) == 0 {
			// Leaf with space: always take the joiner.
			s.accept(env, j.Joiner)
			return
		}
		// Interior node with one free slot: mostly accept, but push down
		// with probability 1/4 to keep the tree random rather than
		// greedily wide at the top.
		if env.Rand().Intn(4) != 0 {
			s.accept(env, j.Joiner)
			return
		}
	}
	if len(kids) == 0 {
		// Full with no children cannot happen (MaxChildren > 0), but be
		// defensive: accept rather than drop the joiner.
		s.accept(env, j.Joiner)
		return
	}
	// Forward down a random edge — the random walk that gives RandTree its
	// name. A second draw re-rolls walks that would immediately revisit
	// the joiner's previous position, and a third biases the very first
	// hop away from the most recently added child; none of this changes
	// the fundamentally random placement, it is the kind of incidental
	// policy tweaking the paper argues should not live here.
	target := kids[env.Rand().Intn(len(kids))]
	if target == m.Src && len(kids) > 1 {
		target = kids[env.Rand().Intn(len(kids))]
	}
	if s.isRoot() && len(kids) > 1 && env.Rand().Intn(2) == 0 {
		if alt := kids[env.Rand().Intn(len(kids))]; alt != target {
			target = alt
		}
	}
	s.Routed++
	env.Send(target, KindJoin, j, msgSize)
}

// OnTimer runs the shared periodic machinery.
func (s *Baseline) OnTimer(env sm.Env, name string) { s.state.onTimer(env, name) }

// OnConnDown reacts to severed connections.
func (s *Baseline) OnConnDown(env sm.Env, peer sm.NodeID) { s.state.onConnDown(env, peer) }

// Clone copies the service in O(1): the copy shares the never-written
// child list.
func (s *Baseline) Clone() sm.Service { return &Baseline{state: s.state.clone()} }

// Digest returns the stable state hash.
func (s *Baseline) Digest() uint64 { return s.state.digest() }

// TreeView accessors (shared with the Choice variant via state).

// TreeDepth returns the node's level (root = 1, 0 if not joined).
func (s *Baseline) TreeDepth() int { return s.Depth }

// TreeDepthBelow returns the known subtree height below the node.
func (s *Baseline) TreeDepthBelow() int { return s.depthBelow() }

// TreeRouted returns the joins recently routed into this node's subtree.
func (s *Baseline) TreeRouted() int { return s.Routed }

// TreeJoined reports tree membership.
func (s *Baseline) TreeJoined() bool { return s.Joined }

// TreeParent returns the parent (-1 for none).
func (s *Baseline) TreeParent() sm.NodeID { return s.Parent }

// TreeHasChild reports whether id is a known child.
func (s *Baseline) TreeHasChild(id sm.NodeID) bool { return s.hasChild(id) }

// TreeChildCount returns the number of known children.
func (s *Baseline) TreeChildCount() int { return len(s.Children) }
