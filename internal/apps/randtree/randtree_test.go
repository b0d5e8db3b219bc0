package randtree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// fakeEnv drives a service directly in unit tests.
type fakeEnv struct {
	id     sm.NodeID
	now    time.Duration
	rng    *rand.Rand
	sent   []*sm.Msg
	timers map[string]time.Duration
	choose func(c sm.Choice) int
}

func newFakeEnv(id sm.NodeID) *fakeEnv {
	return &fakeEnv{id: id, rng: rand.New(rand.NewSource(1)), timers: make(map[string]time.Duration)}
}

func (e *fakeEnv) ID() sm.NodeID       { return e.id }
func (e *fakeEnv) Now() time.Duration  { return e.now }
func (e *fakeEnv) Rand() *rand.Rand    { return e.rng }
func (e *fakeEnv) Logf(string, ...any) {}
func (e *fakeEnv) Send(dst sm.NodeID, kind string, body any, size int) {
	e.sent = append(e.sent, &sm.Msg{Src: e.id, Dst: dst, Kind: kind, Body: body, Size: size})
}
func (e *fakeEnv) SendDatagram(dst sm.NodeID, kind string, body any, size int) {
	e.Send(dst, kind, body, size)
}
func (e *fakeEnv) SetTimer(name string, d time.Duration) { e.timers[name] = d }
func (e *fakeEnv) CancelTimer(name string)               { delete(e.timers, name) }
func (e *fakeEnv) Choose(c sm.Choice) int {
	if e.choose != nil {
		return e.choose(c)
	}
	return 0
}

func (e *fakeEnv) sentKinds() []string {
	var out []string
	for _, m := range e.sent {
		out = append(out, m.Kind)
	}
	return out
}

func TestBaselineLeafAccepts(t *testing.T) {
	s := NewBaseline(0, 0) // root
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 5, Dst: 0, Kind: KindJoin, Body: Join{Joiner: 5}})
	if !s.TreeHasChild(5) {
		t.Fatal("root with space did not accept the joiner")
	}
	if len(env.sent) != 1 || env.sent[0].Kind != KindJoinReply {
		t.Fatalf("expected one JoinReply, got %v", env.sentKinds())
	}
	r := env.sent[0].Body.(JoinReply)
	if r.Parent != 0 || r.Depth != 2 {
		t.Fatalf("reply = %+v, want parent 0 depth 2", r)
	}
}

func TestBaselineDuplicateJoinRegrants(t *testing.T) {
	s := NewBaseline(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 5, Kind: KindJoin, Body: Join{Joiner: 5}})
	env.sent = nil
	s.OnMessage(env, &sm.Msg{Src: 5, Kind: KindJoin, Body: Join{Joiner: 5}})
	if s.TreeChildCount() != 1 {
		t.Fatal("duplicate join added a second child entry")
	}
	if len(env.sent) != 1 || env.sent[0].Kind != KindJoinReply {
		t.Fatalf("duplicate join should re-grant, got %v", env.sentKinds())
	}
}

func TestBaselineFullForwards(t *testing.T) {
	s := NewBaseline(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoin, Body: Join{Joiner: 2}})
	env.sent = nil
	s.OnMessage(env, &sm.Msg{Src: 3, Kind: KindJoin, Body: Join{Joiner: 3}})
	if s.TreeChildCount() != MaxChildren {
		t.Fatalf("degree bound broken: %d children", s.TreeChildCount())
	}
	if len(env.sent) != 1 || env.sent[0].Kind != KindJoin {
		t.Fatalf("full node should forward the join, got %v", env.sentKinds())
	}
	fwd := env.sent[0]
	if fwd.Dst != 1 && fwd.Dst != 2 {
		t.Fatalf("forwarded to non-child %v", fwd.Dst)
	}
}

func TestChoiceCandidates(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	// Root with space, no children: single accept candidate.
	if got := s.routeCandidates(5); len(got) != 1 || got[0].child != -1 {
		t.Fatalf("candidates = %+v, want [accept]", got)
	}
	// Self-join is illegal.
	if got := s.routeCandidates(0); got != nil {
		t.Fatalf("self-join candidates = %+v, want none", got)
	}
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	// Space + one child: accept and forward.
	got := s.routeCandidates(5)
	if len(got) != 2 || got[0].child != -1 || got[1].child != 1 {
		t.Fatalf("candidates = %+v, want [accept, forward->1]", got)
	}
	// Duplicate joiner: re-grant sentinel.
	if got := s.routeCandidates(1); len(got) != 1 || got[0].child != -2 {
		t.Fatalf("dup candidates = %+v, want [regrant]", got)
	}
}

func TestChoiceExposesChoiceOnlyWhenMultiple(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	var chosen []sm.Choice
	env.choose = func(c sm.Choice) int { chosen = append(chosen, c); return 0 }
	s.OnMessage(env, &sm.Msg{Src: 5, Kind: KindJoin, Body: Join{Joiner: 5}})
	if len(chosen) != 1 || chosen[0].Name != "rt.route" || chosen[0].N != 1 {
		t.Fatalf("choices = %+v", chosen)
	}
	if !s.TreeHasChild(5) {
		t.Fatal("accept route not applied")
	}
}

func TestChoiceForwardRoute(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoin, Body: Join{Joiner: 2}})
	env.sent = nil
	env.choose = func(c sm.Choice) int { return 1 } // forward to the 2nd candidate
	s.OnMessage(env, &sm.Msg{Src: 3, Kind: KindJoin, Body: Join{Joiner: 3}})
	if len(env.sent) != 1 || env.sent[0].Kind != KindJoin || env.sent[0].Dst != 2 {
		t.Fatalf("expected forward to child 2, got %v", env.sent)
	}
	if s.Routed != 1 {
		t.Fatalf("Routed = %d, want 1", s.Routed)
	}
}

func TestJoinReplyInstallsPosition(t *testing.T) {
	s := NewChoice(4, 0)
	env := newFakeEnv(4)
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoinReply, Body: JoinReply{Parent: 2, Depth: 3}})
	if !s.TreeJoined() || s.TreeParent() != 2 || s.TreeDepth() != 3 {
		t.Fatalf("state after reply: joined=%v parent=%v depth=%d", s.TreeJoined(), s.TreeParent(), s.TreeDepth())
	}
}

func TestSummaryUpdatesChildInfo(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindSummary, Body: Summary{Size: 7, DepthBelow: 2}})
	if want := []child{{ID: 1, Size: 7, DepthBelow: 2}}; !slices.Equal(s.Children, want) {
		t.Fatalf("children = %+v, want %+v", s.Children, want)
	}
	if s.TreeDepthBelow() != 3 {
		t.Fatalf("depthBelow = %d, want 3", s.TreeDepthBelow())
	}
	if s.subtreeSize() != 8 {
		t.Fatalf("subtreeSize = %d, want 8", s.subtreeSize())
	}
}

func TestHeartbeatTimeoutTriggersRejoin(t *testing.T) {
	s := NewChoice(4, 0)
	env := newFakeEnv(4)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoinReply, Body: JoinReply{Parent: 2, Depth: 3}})
	env.sent = nil
	env.now = 5 * time.Second // far past hbDeadAfter
	s.OnTimer(env, timerHBCheck)
	if s.TreeJoined() {
		t.Fatal("node did not abandon dead parent")
	}
	found := false
	for _, m := range env.sent {
		if m.Kind == KindJoin && m.Dst == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no rejoin sent to root: %v", env.sentKinds())
	}
}

func TestConnDownFromParentRejoins(t *testing.T) {
	s := NewBaseline(4, 0)
	env := newFakeEnv(4)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoinReply, Body: JoinReply{Parent: 2, Depth: 3}})
	env.sent = nil
	s.OnConnDown(env, 2)
	if s.TreeJoined() || s.TreeParent() != -1 {
		t.Fatal("connection loss to parent did not trigger rejoin")
	}
}

func TestConnDownFromChildPrunes(t *testing.T) {
	s := NewBaseline(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	s.OnConnDown(env, 1)
	if s.TreeHasChild(1) {
		t.Fatal("dead child not pruned")
	}
}

// TestCloneIsolatesChildWrites drives every path that writes the child
// list — join accept, Summary, Heartbeat, the hbCheck expiry and
// OnConnDown — on a clone, and holds the original to the children and
// digest it had: clones share the list, so a write in place would leak.
func TestCloneIsolatesChildWrites(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	s.OnMessage(env, &sm.Msg{Src: 3, Kind: KindJoin, Body: Join{Joiner: 3}})
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindSummary, Body: Summary{Size: 3, DepthBelow: 1}})
	s.OnConnDown(env, 3) // leave space for one more join
	children, digest := slices.Clone(s.Children), s.Digest()
	for _, tc := range []struct {
		name  string
		write func(c *Choice, env *fakeEnv)
	}{
		{"join accept", func(c *Choice, env *fakeEnv) {
			c.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoin, Body: Join{Joiner: 2}})
		}},
		{"summary", func(c *Choice, env *fakeEnv) {
			c.OnMessage(env, &sm.Msg{Src: 1, Kind: KindSummary, Body: Summary{Size: 9, DepthBelow: 4}})
		}},
		{"heartbeat", func(c *Choice, env *fakeEnv) {
			env.now = 200 * time.Millisecond
			c.OnMessage(env, &sm.Msg{Src: 1, Kind: KindHeartbeat, Body: Heartbeat{}})
		}},
		{"hbCheck expiry", func(c *Choice, env *fakeEnv) {
			env.now = 5 * time.Second
			c.OnTimer(env, timerHBCheck)
		}},
		{"conn down", func(c *Choice, env *fakeEnv) { c.OnConnDown(env, 1) }},
	} {
		c := s.Clone().(*Choice)
		tc.write(c, newFakeEnv(0))
		if slices.Equal(c.Children, children) {
			t.Fatalf("%s: the clone's children did not change: %+v", tc.name, c.Children)
		}
		if !slices.Equal(s.Children, children) || s.Digest() != digest {
			t.Fatalf("%s on a clone changed the original: children %+v, want %+v", tc.name, s.Children, children)
		}
	}
}

// Explorer workers clone one frozen node concurrently (World.ownService
// with Workers > 1) and run handlers on their clones. Run with -race.
func TestConcurrentClonesOfFrozenNode(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindJoin, Body: Join{Joiner: 1}})
	s.OnMessage(env, &sm.Msg{Src: 1, Kind: KindSummary, Body: Summary{Size: 3, DepthBelow: 1}})
	digest := s.Digest()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := newFakeEnv(0)
			for i := 0; i < 200; i++ {
				c := s.Clone().(*Choice)
				c.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoin, Body: Join{Joiner: 2}})
				c.OnMessage(env, &sm.Msg{Src: 1, Kind: KindSummary, Body: Summary{Size: i, DepthBelow: 2}})
				c.OnConnDown(env, 1)
				_ = c.Digest()
				env.sent = env.sent[:0]
			}
		}()
	}
	wg.Wait()
	if s.Digest() != digest || !s.TreeHasChild(1) || s.TreeChildCount() != 1 {
		t.Fatalf("concurrent clones changed the frozen node: %+v", s.Children)
	}
}

func TestDigestStableAcrossClone(t *testing.T) {
	s := NewChoice(3, 0)
	env := newFakeEnv(3)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoinReply, Body: JoinReply{Parent: 2, Depth: 3}})
	if s.Clone().Digest() != s.Digest() {
		t.Fatal("clone digest differs from original")
	}
}

// --- integration via the harness ---

func TestAllSetupsJoinEveryone(t *testing.T) {
	for _, setup := range Setups {
		e := NewExperiment(ExperimentConfig{N: 15, Seed: 7, Setup: setup})
		e.Run(15 * time.Second)
		if got := e.JoinedCount(); got != 15 {
			t.Errorf("%s: joined %d/15", setup, got)
		}
		for id, d := range e.Depths() {
			if d <= 0 {
				t.Errorf("%s: node %v has broken depth %d", setup, id, d)
			}
		}
		if md := e.MaxDepth(); md < 4 || md > 10 {
			t.Errorf("%s: implausible max depth %d for 15 nodes", setup, md)
		}
	}
}

func TestDegreeBoundGlobally(t *testing.T) {
	e := NewExperiment(ExperimentConfig{N: 31, Seed: 3, Setup: SetupChoiceRandom})
	e.Run(20 * time.Second)
	for _, node := range e.Cluster.Nodes() {
		if tv := node.Service().(TreeView); tv.TreeChildCount() > MaxChildren {
			t.Fatalf("node %v exceeds degree bound: %d", node.ID(), tv.TreeChildCount())
		}
	}
}

func TestFailLargestSubtree(t *testing.T) {
	e := NewExperiment(ExperimentConfig{N: 31, Seed: 9, Setup: SetupBaseline})
	e.Run(20 * time.Second)
	failed := e.FailLargestSubtree()
	if len(failed) < 8 || len(failed) > 25 {
		t.Fatalf("failed subtree size %d not roughly half of 31", len(failed))
	}
	for _, id := range failed {
		if !e.Cluster.Node(id).Down() {
			t.Fatalf("node %v reported failed but not down", id)
		}
		if id == 0 {
			t.Fatal("root must never be in a failed subtree")
		}
	}
}

func TestRejoinRecoversFullMembership(t *testing.T) {
	r := RunSection4(ExperimentConfig{N: 31, Seed: 5, Setup: SetupChoiceCrystalBall})
	if r.JoinedAfter != 31 {
		t.Fatalf("join phase attached %d/31", r.JoinedAfter)
	}
	if r.RejoinJoined != 31 {
		t.Fatalf("rejoin phase attached %d/31", r.RejoinJoined)
	}
	if r.Failed < 8 {
		t.Fatalf("failure phase killed only %d nodes", r.Failed)
	}
}

// TestSection4Shape pins the paper's qualitative result: after failing a
// subtree and rejoining, the Choice-CrystalBall setup rebuilds a shallower
// tree than Choice-Random (the paper measured 9 vs 10), and joining alone
// yields near-optimal depth in every setup (paper: 6, optimal 5).
// Deterministic: fixed seeds, fixed code.
func TestSection4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed simulation")
	}
	sum := map[Setup]struct{ join, rejoin int }{}
	const seeds = 5
	for _, setup := range Setups {
		agg := struct{ join, rejoin int }{}
		for seed := int64(1); seed <= seeds; seed++ {
			r := RunSection4(ExperimentConfig{N: 31, Seed: seed, Setup: setup})
			agg.join += r.JoinDepth
			agg.rejoin += r.RejoinDepth
		}
		sum[setup] = agg
	}
	for setup, a := range sum {
		avgJoin := float64(a.join) / seeds
		if avgJoin < 5 || avgJoin > 8.5 {
			t.Errorf("%s: join depth %.1f not near-optimal (optimal 5)", setup, avgJoin)
		}
	}
	cb := float64(sum[SetupChoiceCrystalBall].rejoin) / seeds
	rnd := float64(sum[SetupChoiceRandom].rejoin) / seeds
	if cb >= rnd {
		t.Errorf("shape violated: CrystalBall rejoin depth %.1f >= Random %.1f", cb, rnd)
	}
}

// Property: any sequence of joins through the harness keeps the live tree
// acyclic with bounded degree.
func TestTreeInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 4
		e := NewExperiment(ExperimentConfig{N: n, Seed: seed, Setup: SetupChoiceRandom})
		e.Run(time.Duration(n)*e.Cfg.JoinSpacing + 12*time.Second)
		if e.JoinedCount() != n {
			return false
		}
		for _, d := range e.Depths() {
			if d <= 0 { // -1 marks a cycle or broken chain
				return false
			}
		}
		for _, node := range e.Cluster.Nodes() {
			if node.Service().(TreeView).TreeChildCount() > MaxChildren {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatPropagatesDepthCorrection(t *testing.T) {
	s := NewChoice(4, 0)
	env := newFakeEnv(4)
	s.Init(env)
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindJoinReply, Body: JoinReply{Parent: 2, Depth: 5}})
	// The parent moved up: its heartbeat reports depth 2, so we are 3.
	s.OnMessage(env, &sm.Msg{Src: 2, Kind: KindHeartbeat, Body: Heartbeat{Depth: 2}})
	if s.TreeDepth() != 3 {
		t.Fatalf("depth after parent heartbeat = %d, want 3", s.TreeDepth())
	}
	// Heartbeats from non-parents must not touch our depth.
	s.OnMessage(env, &sm.Msg{Src: 9, Kind: KindHeartbeat, Body: Heartbeat{Depth: 1}})
	if s.TreeDepth() != 3 {
		t.Fatal("non-parent heartbeat changed depth")
	}
}

func TestRoutedDecaysOnSummarize(t *testing.T) {
	s := NewChoice(0, 0)
	env := newFakeEnv(0)
	s.Init(env)
	s.Routed = 3
	s.OnTimer(env, timerSummarize)
	if s.Routed != 0 {
		t.Fatalf("Routed after summarize = %d, want 0", s.Routed)
	}
}

// TestJoinUnderLossyNetwork drives the tree protocol over a topology with
// 10% loss on every path: the reliable transport's retransmission model
// inflates latency but must not break membership.
func TestJoinUnderLossyNetwork(t *testing.T) {
	eng := sim.NewEngine(13)
	top := netmodel.Uniform(15, 20*time.Millisecond, 0, 0.1)
	net := transport.New(eng, top)
	cl := core.NewCluster(eng, net, core.Config{
		NewResolver: func(*core.Node) core.Resolver { return core.Random{} },
	})
	for i := 0; i < 15; i++ {
		svc := NewChoice(sm.NodeID(i), 0)
		svc.JoinDelay = time.Duration(i) * 100 * time.Millisecond
		cl.AddNode(sm.NodeID(i), svc)
	}
	cl.Start()
	eng.RunFor(30 * time.Second)
	joined := 0
	for _, node := range cl.Nodes() {
		if node.Service().(TreeView).TreeJoined() {
			joined++
		}
	}
	if joined != 15 {
		t.Fatalf("joined %d/15 under 10%% loss", joined)
	}
}
