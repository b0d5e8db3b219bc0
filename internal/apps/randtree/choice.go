package randtree

import (
	"fmt"

	"crystalchoice/internal/sm"
)

// Choice is the paper's proposed style: the join-routing decision is not a
// policy baked into the handler but a set of alternatives exposed to the
// runtime through Env.Choose. The handler enumerates the legal placements
// — adopt here, or hand the request to one of the children — and lets the
// resolver (random, or CrystalBall with the balance objective) pick one.
// Compare its onJoin with Baseline.onJoin: the basic algorithm is the
// same; the embedded strategy is gone.
type Choice struct {
	state
}

// NewChoice returns an exposed-choice node. root is the rendezvous node.
func NewChoice(id, root sm.NodeID) *Choice {
	return &Choice{state: newState(id, root)}
}

// ProtocolName identifies the variant in traces.
func (s *Choice) ProtocolName() string { return "randtree-choice" }

// Init starts the protocol.
func (s *Choice) Init(env sm.Env) { s.initNode(env) }

// Neighbors exposes the checkpoint neighborhood (parent + children).
func (s *Choice) Neighbors() []sm.NodeID { return s.state.neighbors() }

// OnMessage dispatches protocol messages.
func (s *Choice) OnMessage(env sm.Env, m *sm.Msg) {
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

// route is one alternative way to serve a join request: adopt the joiner
// here (child < 0) or forward to the given child. Each alternative is a
// simple handler of its own — the paper's NFA-of-simple-handlers view.
type route struct {
	child sm.NodeID // -1 = accept locally
}

// onJoin enumerates legal placements and exposes the selection.
func (s *Choice) onJoin(env sm.Env, m *sm.Msg) {
	j := m.Body.(Join)
	routes := s.routeCandidates(j.Joiner)
	if len(routes) == 0 {
		s.serveElsewhere(env, j)
		return
	}
	i := env.Choose(sm.Choice{
		Name: "rt.route",
		N:    len(routes),
		Label: func(i int) string {
			if routes[i].child < 0 {
				return "accept"
			}
			return fmt.Sprintf("forward->%v", routes[i].child)
		},
	})
	s.applyRoute(env, j, routes[i])
}

// routeCandidates lists the legal placements for joiner.
func (s *Choice) routeCandidates(joiner sm.NodeID) []route {
	var routes []route
	if !s.Joined || joiner == s.ID || joiner == s.Parent {
		return nil // not positioned to place this joiner
	}
	if s.hasChild(joiner) {
		return []route{{child: -2}} // re-grant to the existing child
	}
	if s.hasSpace() {
		routes = append(routes, route{child: -1})
	}
	for _, c := range s.Children {
		routes = append(routes, route{child: c.ID})
	}
	return routes
}

// applyRoute executes one alternative.
func (s *Choice) applyRoute(env sm.Env, j Join, r route) {
	switch {
	case r.child == -2 || (r.child == -1 && s.hasChild(j.Joiner)):
		env.Send(j.Joiner, KindJoinReply, JoinReply{Parent: s.ID, Depth: s.Depth + 1}, msgSize)
	case r.child == -1:
		s.accept(env, j.Joiner)
	default:
		s.Routed++
		env.Send(r.child, KindJoin, j, msgSize)
	}
}

// serveElsewhere bounces a request this node cannot legally place.
func (s *Choice) serveElsewhere(env sm.Env, j Join) {
	if !s.isRoot() && j.Joiner != s.ID {
		env.Send(s.Root, KindJoin, j, msgSize)
	} else if s.isRoot() && j.Joiner != s.ID && !s.Joined {
		s.accept(env, j.Joiner)
	}
}

// OnTimer runs the shared periodic machinery.
func (s *Choice) OnTimer(env sm.Env, name string) { s.state.onTimer(env, name) }

// OnConnDown reacts to severed connections.
func (s *Choice) OnConnDown(env sm.Env, peer sm.NodeID) { s.state.onConnDown(env, peer) }

// ExposesChoice declares where the routing choice is made
// (sm.ChoiceSites): a join request alone.
func (s *Choice) ExposesChoice(msgKind, timer string) bool { return msgKind == KindJoin }

// Clone copies the service in O(1): the copy shares the never-written
// child list.
func (s *Choice) Clone() sm.Service { return &Choice{state: s.state.clone()} }

// Digest returns the stable state hash.
func (s *Choice) Digest() uint64 { return s.state.digest() }

// TreeDepth returns the node's level (root = 1, 0 if not joined).
func (s *Choice) TreeDepth() int { return s.Depth }

// TreeDepthBelow returns the known subtree height below the node.
func (s *Choice) TreeDepthBelow() int { return s.depthBelow() }

// TreeRouted returns the joins recently routed into this node's subtree.
func (s *Choice) TreeRouted() int { return s.Routed }

// TreeJoined reports tree membership.
func (s *Choice) TreeJoined() bool { return s.Joined }

// TreeParent returns the parent (-1 for none).
func (s *Choice) TreeParent() sm.NodeID { return s.Parent }

// TreeHasChild reports whether id is a known child.
func (s *Choice) TreeHasChild(id sm.NodeID) bool { return s.hasChild(id) }

// TreeChildCount returns the number of known children.
func (s *Choice) TreeChildCount() int { return len(s.Children) }
