// Package randtree implements the random overlay tree protocol of the
// paper's Section-4 case study, in two variants:
//
//   - Baseline: the released-RandTree style, with the join-routing policy
//     hard-coded into one complex message handler full of branching and
//     inline pseudo-random draws;
//   - Choice: the paper's proposed style, where the routing decision is a
//     single exposed choice resolved by the runtime (randomly, or by the
//     CrystalBall predictive resolver against a tree-balance objective).
//
// Both variants share the same wire protocol, membership maintenance,
// heartbeat failure detection, and subtree summaries, so the only
// difference — and the code-metrics comparison of experiment E1 — is how
// the routing decision is made.
//
// NewExperiment (harness.go) is the app's one deployment builder — the
// Internet-like topology, the setup's resolver, Deploy, start — which the
// Section-4 and steering runs, cmd/mc and the scenario lab
// (internal/scenario) all build through; the caller's runtime settings
// arrive whole in ExperimentConfig.Runtime.
package randtree

import (
	"cmp"
	"slices"
	"time"

	"crystalchoice/internal/sm"
)

// Message kinds.
const (
	KindJoin      = "rt.join"
	KindJoinReply = "rt.joinReply"
	KindSummary   = "rt.summary"
	KindHeartbeat = "rt.hb"
)

// Timer names.
const (
	timerHeartbeat = "rt.hbSend"
	timerHBCheck   = "rt.hbCheck"
	timerSummarize = "rt.summarize"
	timerRejoin    = "rt.rejoin"
)

// Protocol timing constants. These are deliberately coarse: the evaluation
// measures tree shape, not latency.
const (
	heartbeatEvery = 250 * time.Millisecond
	hbCheckEvery   = 500 * time.Millisecond
	hbDeadAfter    = 900 * time.Millisecond
	summarizeEvery = 300 * time.Millisecond
	rejoinRetry    = 700 * time.Millisecond
	msgSize        = 24
)

// MaxChildren is the node out-degree of the overlay tree. With degree 2 a
// 31-node tree has optimal height 5 (counting the root as level 1), the
// optimum quoted in the paper.
const MaxChildren = 2

// Join asks the receiver (directly or transitively) to adopt Joiner.
type Join struct {
	Joiner sm.NodeID
}

// DigestBody folds the body into a state digest.
func (j Join) DigestBody(h *sm.Hasher) { h.WriteString("join").WriteNode(j.Joiner) }

// JoinReply tells Joiner it was adopted by Parent at Depth.
type JoinReply struct {
	Parent sm.NodeID
	Depth  int
}

// DigestBody folds the body into a state digest.
func (r JoinReply) DigestBody(h *sm.Hasher) {
	h.WriteString("jre").WriteNode(r.Parent).WriteInt(int64(r.Depth))
}

// Summary reports a child's subtree aggregates to its parent.
type Summary struct {
	Size       int // nodes in the sender's subtree, sender included
	DepthBelow int // levels below the sender (0 for a leaf)
}

// DigestBody folds the body into a state digest.
func (s Summary) DigestBody(h *sm.Hasher) {
	h.WriteString("sum").WriteInt(int64(s.Size)).WriteInt(int64(s.DepthBelow))
}

// Heartbeat is the keepalive exchanged along tree edges. Parent-to-child
// heartbeats piggyback the parent's depth so level changes (e.g. after a
// rejoin higher up) propagate down the tree.
type Heartbeat struct {
	Depth int
}

// DigestBody folds the body into a state digest.
func (hb Heartbeat) DigestBody(h *sm.Hasher) { h.WriteString("hb").WriteInt(int64(hb.Depth)) }

// child is what a node knows about one of its children.
type child struct {
	ID         sm.NodeID
	LastSeen   time.Duration
	Size       int
	DepthBelow int
}

// state is the protocol state shared by both variants.
type state struct {
	ID     sm.NodeID
	Root   sm.NodeID
	Joined bool
	Parent sm.NodeID // -1 when none
	Depth  int       // root is 1; 0 when not joined
	// Children lists the node's children in ascending ID order. The slice
	// is never written in place — putChild and dropChild replace it — so
	// clones share it (DESIGN.md §2.4.1).
	Children   []child
	ParentSeen time.Duration
	// Routed counts joins recently forwarded into this node's subtree; it
	// decays every summarize period. Lookahead objectives use it to see
	// where in-flight joins are heading.
	Routed int
	// JoinDelay postpones the initial join request, letting deployments
	// stagger arrivals.
	JoinDelay time.Duration
}

func newState(id, root sm.NodeID) state {
	return state{ID: id, Root: root, Parent: -1}
}

func (s *state) isRoot() bool { return s.ID == s.Root }

// findChild returns where id is, or would be, in Children.
func (s *state) findChild(id sm.NodeID) (int, bool) {
	return slices.BinarySearchFunc(s.Children, id, func(c child, id sm.NodeID) int { return cmp.Compare(c.ID, id) })
}

// hasChild reports whether id is a known child.
func (s *state) hasChild(id sm.NodeID) bool {
	_, ok := s.findChild(id)
	return ok
}

// putChild records c, replacing the entry for c.ID if there is one. The
// list is rebuilt, never written: clones of this state may share it.
func (s *state) putChild(c child) {
	i, found := s.findChild(c.ID)
	if found && s.Children[i] == c {
		return
	}
	next := make([]child, 0, len(s.Children)+1)
	next = append(next, s.Children[:i]...)
	next = append(next, c)
	if found {
		i++
	}
	s.Children = append(next, s.Children[i:]...)
}

// dropChild forgets child id, rebuilding the list as putChild does.
func (s *state) dropChild(id sm.NodeID) {
	if i, found := s.findChild(id); found {
		s.Children = slices.Concat(s.Children[:i], s.Children[i+1:])
	}
}

// childIDs returns the children in ascending order.
func (s *state) childIDs() []sm.NodeID {
	ids := make([]sm.NodeID, len(s.Children))
	for i, c := range s.Children {
		ids[i] = c.ID
	}
	return ids
}

func (s *state) hasSpace() bool { return len(s.Children) < MaxChildren }

// subtreeSize returns the node count of this node's subtree (self included)
// according to the latest child summaries.
func (s *state) subtreeSize() int {
	n := 1
	for _, c := range s.Children {
		n += c.Size
	}
	return n
}

// depthBelow returns the levels below this node per child summaries.
func (s *state) depthBelow() int {
	d := 0
	for _, c := range s.Children {
		if c.DepthBelow+1 > d {
			d = c.DepthBelow + 1
		}
	}
	return d
}

// digest folds the protocol state into a hash.
func (s *state) digest() uint64 {
	h := sm.NewHasher()
	h.WriteNode(s.ID).WriteNode(s.Root).WriteBool(s.Joined).WriteNode(s.Parent).WriteInt(int64(s.Depth)).WriteInt(int64(s.Routed))
	h.WriteInt(int64(len(s.Children)))
	for _, c := range s.Children {
		h.WriteNode(c.ID).WriteInt(int64(c.Size)).WriteInt(int64(c.DepthBelow))
	}
	return h.Sum()
}

// clone copies the state. Every field is a value except Children, which is
// never written in place, so the copy shares it.
func (s *state) clone() state { return *s }

// neighbors returns parent and children: the checkpoint neighborhood.
func (s *state) neighbors() []sm.NodeID {
	out := s.childIDs()
	if s.Parent >= 0 {
		out = append(out, s.Parent)
	}
	return out
}

// --- shared protocol machinery (identical in both variants) ---

// initNode starts timers and, for non-roots, begins the join process.
func (s *state) initNode(env sm.Env) {
	if s.isRoot() {
		s.Joined = true
		s.Depth = 1
	} else if !s.Joined {
		if s.JoinDelay > 0 {
			// The rejoin timer doubles as the delayed first join.
			env.SetTimer(timerRejoin, s.JoinDelay)
		} else {
			env.Send(s.Root, KindJoin, Join{Joiner: s.ID}, msgSize)
			env.SetTimer(timerRejoin, rejoinRetry)
		}
	}
	env.SetTimer(timerHeartbeat, heartbeatEvery)
	env.SetTimer(timerHBCheck, hbCheckEvery)
	env.SetTimer(timerSummarize, summarizeEvery)
}

// accept adopts joiner as a child and replies with its new depth.
func (s *state) accept(env sm.Env, joiner sm.NodeID) {
	s.putChild(child{ID: joiner, LastSeen: env.Now(), Size: 1})
	env.Send(joiner, KindJoinReply, JoinReply{Parent: s.ID, Depth: s.Depth + 1}, msgSize)
}

// onJoinReply installs the granted position.
func (s *state) onJoinReply(env sm.Env, m *sm.Msg) {
	r := m.Body.(JoinReply)
	if s.Joined && s.Parent == r.Parent {
		return // duplicate grant
	}
	s.Joined = true
	s.Parent = r.Parent
	s.Depth = r.Depth
	s.ParentSeen = env.Now()
	env.CancelTimer(timerRejoin)
	env.Logf("joined under %v at depth %d", r.Parent, r.Depth)
}

// onSummary folds a child's subtree report.
func (s *state) onSummary(env sm.Env, m *sm.Msg) {
	if s.hasChild(m.Src) {
		sum := m.Body.(Summary)
		s.putChild(child{ID: m.Src, LastSeen: env.Now(), Size: sum.Size, DepthBelow: sum.DepthBelow})
	}
}

// onHeartbeat refreshes liveness bookkeeping for the edge to m.Src and
// adopts depth corrections from the parent.
func (s *state) onHeartbeat(env sm.Env, m *sm.Msg) {
	hb, _ := m.Body.(Heartbeat)
	if m.Src == s.Parent {
		s.ParentSeen = env.Now()
		if s.Joined && hb.Depth > 0 && s.Depth != hb.Depth+1 {
			s.Depth = hb.Depth + 1
		}
	}
	if i, ok := s.findChild(m.Src); ok {
		c := s.Children[i]
		c.LastSeen = env.Now()
		s.putChild(c)
	}
}

// onTimer runs the shared periodic machinery; it reports whether the timer
// was consumed.
func (s *state) onTimer(env sm.Env, name string) bool {
	switch name {
	case timerHeartbeat:
		if s.Parent >= 0 {
			env.Send(s.Parent, KindHeartbeat, Heartbeat{Depth: s.Depth}, 8)
		}
		for _, c := range s.Children {
			env.Send(c.ID, KindHeartbeat, Heartbeat{Depth: s.Depth}, 8)
		}
		env.SetTimer(timerHeartbeat, heartbeatEvery)
		return true
	case timerSummarize:
		if s.Parent >= 0 && s.Joined {
			env.Send(s.Parent, KindSummary, Summary{Size: s.subtreeSize(), DepthBelow: s.depthBelow()}, 16)
		}
		s.Routed = 0
		env.SetTimer(timerSummarize, summarizeEvery)
		return true
	case timerHBCheck:
		now := env.Now()
		if s.Joined && !s.isRoot() && s.Parent >= 0 && now-s.ParentSeen > hbDeadAfter {
			s.parentLost(env)
		}
		for _, c := range s.Children { // dropChild replaces, never writes, the list ranged over
			if now-c.LastSeen > hbDeadAfter {
				s.dropChild(c.ID)
				env.Logf("child %v presumed dead", c.ID)
			}
		}
		env.SetTimer(timerHBCheck, hbCheckEvery)
		return true
	case timerRejoin:
		if !s.Joined && !s.isRoot() {
			env.Send(s.Root, KindJoin, Join{Joiner: s.ID}, msgSize)
			env.SetTimer(timerRejoin, rejoinRetry)
		}
		return true
	}
	return false
}

// parentLost abandons the current position and rejoins through the root.
func (s *state) parentLost(env sm.Env) {
	env.Logf("parent %v lost; rejoining", s.Parent)
	s.Joined = false
	s.Parent = -1
	s.Depth = 0
	env.Send(s.Root, KindJoin, Join{Joiner: s.ID}, msgSize)
	env.SetTimer(timerRejoin, rejoinRetry)
}

// onConnDown handles a severed connection (the corrective action execution
// steering may take).
func (s *state) onConnDown(env sm.Env, peer sm.NodeID) {
	if peer == s.Parent && s.Joined && !s.isRoot() {
		s.parentLost(env)
		return
	}
	s.dropChild(peer)
}
