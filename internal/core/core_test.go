package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"crystalchoice/internal/checkpoint"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/trace"
	"crystalchoice/internal/transport"
)

// balSvc is a toy load-balancing service: "work" messages carry load units;
// the holder exposes the choice of which peer to offload to. "load"
// messages add to the local value.
type balSvc struct {
	id    NodeID
	peers []NodeID
	val   int
}

func (s *balSvc) Init(env sm.Env) {}
func (s *balSvc) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case "work":
		if len(s.peers) == 0 {
			return
		}
		i := env.Choose(sm.Choice{Name: "target", N: len(s.peers)})
		env.Send(s.peers[i], "load", m.Body.(int), 8)
	case "load":
		s.val += m.Body.(int)
	}
}
func (s *balSvc) OnTimer(env sm.Env, name string) {
	if name == "emit" {
		env.Send(s.id, "work", 1, 8)
	}
}
func (s *balSvc) Clone() sm.Service {
	c := *s
	c.peers = sm.CloneNodes(s.peers)
	return &c
}
func (s *balSvc) Digest() uint64 {
	return sm.NewHasher().WriteNode(s.id).WriteInt(int64(s.val)).WriteNodes(s.peers).Sum()
}

func rig(t *testing.T, n int, cfg Config) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(11)
	top := netmodel.Uniform(n, 5*time.Millisecond, 0, 0)
	net := transport.New(eng, top)
	cl := NewCluster(eng, net, cfg)
	for i := 0; i < n; i++ {
		var peers []NodeID
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, NodeID(j))
			}
		}
		cl.AddNode(NodeID(i), &balSvc{id: NodeID(i), peers: peers})
	}
	cl.Start()
	return eng, cl
}

func inject(cl *Cluster, dst NodeID, kind string, body any) {
	// Deliver an externally sourced message by sending from the dst's own
	// runtime (self-send has zero latency).
	n := cl.Node(dst)
	n.sendRaw(dst, kind, body, 8, true)
}

func TestMessageRoundTrip(t *testing.T) {
	eng, cl := rig(t, 3, Config{NewResolver: func(*Node) Resolver { return First{} }})
	inject(cl, 0, "work", 7)
	eng.RunFor(time.Second)
	// First resolver: node 0 offloads to peers[0] == node 1.
	if got := cl.Node(1).Service().(*balSvc).val; got != 7 {
		t.Fatalf("node1 val = %d, want 7", got)
	}
	if cl.Node(2).Service().(*balSvc).val != 0 {
		t.Fatal("First resolver leaked load to node2")
	}
	if cl.Stats().Choices != 1 {
		t.Fatalf("choices = %d", cl.Stats().Choices)
	}
}

func TestTimersDriveService(t *testing.T) {
	eng, cl := rig(t, 2, Config{NewResolver: func(*Node) Resolver { return First{} }})
	env := cl.Node(0).env()
	env.SetTimer("emit", 10*time.Millisecond)
	eng.RunFor(time.Second)
	if got := cl.Node(1).Service().(*balSvc).val; got != 1 {
		t.Fatalf("timer-driven work not delivered: val=%d", got)
	}
}

func TestTimerCancelAndReset(t *testing.T) {
	eng, cl := rig(t, 2, Config{NewResolver: func(*Node) Resolver { return First{} }})
	env := cl.Node(0).env()
	env.SetTimer("emit", 10*time.Millisecond)
	env.CancelTimer("emit")
	eng.RunFor(time.Second)
	if cl.Node(1).Service().(*balSvc).val != 0 {
		t.Fatal("canceled timer fired")
	}
	env.SetTimer("emit", 10*time.Millisecond)
	env.SetTimer("emit", 50*time.Millisecond) // reset postpones
	eng.RunFor(30 * time.Millisecond)
	if cl.Node(1).Service().(*balSvc).val != 0 {
		t.Fatal("reset timer fired at original deadline")
	}
	eng.RunFor(time.Second)
	if cl.Node(1).Service().(*balSvc).val != 1 {
		t.Fatal("reset timer never fired")
	}
}

func TestRoundRobinResolver(t *testing.T) {
	eng, cl := rig(t, 3, Config{NewResolver: func(*Node) Resolver { return &RoundRobin{} }})
	for i := 0; i < 4; i++ {
		inject(cl, 0, "work", 1)
		eng.RunFor(100 * time.Millisecond)
	}
	// Peers of node 0 are [1,2]; round robin yields 1,2,1,2.
	if cl.Node(1).Service().(*balSvc).val != 2 || cl.Node(2).Service().(*balSvc).val != 2 {
		t.Fatalf("round robin distribution: node1=%d node2=%d",
			cl.Node(1).Service().(*balSvc).val, cl.Node(2).Service().(*balSvc).val)
	}
}

func TestCheckpointsPopulateModel(t *testing.T) {
	eng, cl := rig(t, 3, Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 100 * time.Millisecond,
	})
	cl.Node(1).Service().(*balSvc).val = 42
	eng.RunFor(500 * time.Millisecond)
	e, ok := cl.Node(0).Model().State.Get(1)
	if !ok {
		t.Fatal("node0's model has no checkpoint of node1")
	}
	if e.State.(*balSvc).val != 42 {
		t.Fatalf("checkpointed val = %d, want 42", e.State.(*balSvc).val)
	}
	if cl.Stats().Checkpoints == 0 {
		t.Fatal("checkpoint counter not incremented")
	}
	// The snapshot is assembled from the same store.
	snap := cl.Node(0).Snapshot()
	if !snap.Complete {
		t.Fatal("snapshot incomplete after several rounds")
	}
	if snap.States[1].Digest() != e.State.Digest() || snap.States[1] == e.State {
		t.Fatal("snapshot does not hold a clone of the model's entry")
	}
}

// TestRecoveryState: after a checkpoint round the cluster restores a node
// from the checkpoint its peers' models retain, as a clone — mutating it
// cannot corrupt the retained entry. (TestMaterializeWorld checks that
// nothing is invented for a node no model knows.)
func TestRecoveryState(t *testing.T) {
	eng, cl := rig(t, 3, Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 100 * time.Millisecond,
	})
	cl.Node(1).Service().(*balSvc).val = 42
	eng.RunFor(500 * time.Millisecond)
	rs := cl.RecoveryState(1)
	if rs == nil || rs.(*balSvc).val != 42 {
		t.Fatalf("recovery state does not match the retained checkpoint: %v", rs)
	}
	rs.(*balSvc).val = -1
	for _, holder := range []NodeID{0, 2} {
		if e, _ := cl.Node(holder).Model().State.Get(1); e.State.(*balSvc).val != 42 {
			t.Fatalf("RecoveryState leaked node %v's retained checkpoint", holder)
		}
	}
}

// Two holders whose checkpoints of a node tie on (epoch, at) but differ in
// content: Cluster.RecoveryState and a materialized world's Recovery hook
// pick the same one, the first holder's in cluster order.
func TestRecoveryTieFirstHolderWins(t *testing.T) {
	_, cl := rig(t, 4, Config{NewResolver: func(*Node) Resolver { return First{} }})
	first, second := &balSvc{id: 2, val: 1}, &balSvc{id: 2, val: 2}
	cl.Node(1).Model().State.Update(2, second, time.Second, 3)
	cl.Node(0).Model().State.Update(2, first, time.Second, 3)
	if got := cl.RecoveryState(2); got == nil || got.Digest() != first.Digest() {
		t.Fatalf("RecoveryState(2) = %v, want the first holder's %v", got, first)
	}
	w := cl.MaterializeWorld(explore.FirstPolicy, 1, nil)
	if got := w.Recovery(2); got == nil || got.Digest() != first.Digest() {
		t.Fatalf("materialized Recovery(2) = %v, want the first holder's %v", got, first)
	}
	// A fresher checkpoint at a later holder wins over both.
	later := &balSvc{id: 2, val: 3}
	cl.Node(3).Model().State.Update(2, later, 2*time.Second, 3)
	if got := cl.RecoveryState(2); got.Digest() != later.Digest() {
		t.Fatalf("RecoveryState(2) = %v, want the freshest %v", got, later)
	}
	if got := cl.MaterializeWorld(explore.FirstPolicy, 1, nil).Recovery(2); got.Digest() != later.Digest() {
		t.Fatalf("materialized Recovery(2) = %v, want the freshest %v", got, later)
	}
}

// cloneCounter counts how often the checkpointed state it stands for is
// cloned.
type cloneCounter struct {
	balSvc
	clones *int
}

func (s *cloneCounter) Clone() sm.Service { *s.clones++; return s }

// A checkpoint response's state is already a clone the sender made for the
// receiver, so receiving one clones nothing: a fresh response is retained
// as delivered, and a stale one — an older epoch, or the same epoch
// captured earlier — is dropped.
func TestStaleCheckpointResponseNotCloned(t *testing.T) {
	_, cl := rig(t, 2, Config{NewResolver: func(*Node) Resolver { return First{} }})
	n := cl.Node(0)
	clones := 0
	deliver := func(at time.Duration, epoch uint64) *cloneCounter {
		st := &cloneCounter{clones: &clones}
		resp := checkpoint.Response{Epoch: epoch, At: at, State: st}
		n.onDeliver(&newDelivery(1, 0, checkpoint.KindResponse, resp, 0, true).tm)
		return st
	}
	fresh := deliver(2*time.Second, 4)
	if e, ok := n.Model().State.Get(1); !ok || e.State != fresh {
		t.Fatalf("fresh response: retained=%v, state %p, want the delivered %p", ok, e.State, fresh)
	}
	deliver(3*time.Second, 3) // older epoch
	deliver(time.Second, 4)   // same epoch, earlier capture
	if e, _ := n.Model().State.Get(1); e.State != fresh {
		t.Fatal("a stale response replaced the retained entry")
	}
	fresher := deliver(3*time.Second, 4)
	if e, _ := n.Model().State.Get(1); e.State != fresher {
		t.Fatal("a fresher response was not retained as delivered")
	}
	if clones != 0 {
		t.Fatalf("receiving four responses cloned %d times, want 0", clones)
	}
	if got := n.Stats().Checkpoints; got != 4 {
		t.Fatalf("Stats.Checkpoints = %d, want 4 responses received", got)
	}
}

// liveClones is balSvc re-arming an "emit" timer, counting the handlers
// its live copy runs and the clones taken of it. Its clones, which
// lookahead worlds fork and run further, count nothing.
type liveClones struct {
	balSvc
	live                   bool
	clones, handled, works *int
}

func (s *liveClones) Init(env sm.Env) { env.SetTimer("emit", 7*time.Millisecond) }
func (s *liveClones) OnMessage(env sm.Env, m *sm.Msg) {
	s.count(s.handled)
	if m.Kind == "work" {
		s.count(s.works)
	}
	s.balSvc.OnMessage(env, m)
}
func (s *liveClones) OnTimer(env sm.Env, name string) {
	s.count(s.handled)
	s.balSvc.OnTimer(env, name)
	env.SetTimer("emit", 7*time.Millisecond)
}
func (s *liveClones) Clone() sm.Service {
	s.count(s.clones)
	c := *s
	c.balSvc = *s.balSvc.Clone().(*balSvc)
	c.live = false
	return &c
}
func (s *liveClones) count(n *int) {
	if s.live {
		*n++
	}
}

// choiceSiteClones is liveClones declaring its one choice site: only a
// "work" message reaches Choose.
type choiceSiteClones struct{ liveClones }

func (s *choiceSiteClones) ExposesChoice(msgKind, timer string) bool { return msgKind == "work" }

// The runtime clones a node's service before a handler only for a
// resolver that reads that pre-event state — Predictive — and, for a
// service that declares its choice sites, only before a handler that can
// reach Choose. A steering node with another resolver forks its live
// service in steerAway alone: one clone per check whose with-message
// lookahead is safe, none for a timer.
func TestPreEventCloneOnlyForPredictive(t *testing.T) {
	run := func(cfg Config, declare bool) (clones, handled, works int, st Stats) {
		eng := sim.NewEngine(5)
		cl := NewCluster(eng, transport.New(eng, netmodel.Uniform(3, 5*time.Millisecond, 0, 0)), cfg)
		for i := NodeID(0); i < 3; i++ {
			lc := liveClones{balSvc: balSvc{id: i}, live: true, clones: &clones, handled: &handled, works: &works}
			for j := NodeID(0); j < 3; j++ {
				if j != i {
					lc.peers = append(lc.peers, j)
				}
			}
			var svc sm.Service = &lc
			if declare {
				svc = &choiceSiteClones{lc}
			}
			cl.AddNode(i, svc)
		}
		cl.Start()
		eng.RunFor(300 * time.Millisecond)
		return clones, handled, works, cl.Stats()
	}
	bounded := explore.Property{Name: "val<=1e6", Check: func(w *explore.World) bool {
		for _, id := range w.Nodes() {
			if w.Service(id).(*liveClones).val > 1e6 {
				return false
			}
		}
		return true
	}}
	clones, handled, _, st := run(Config{
		NewResolver: func(*Node) Resolver { return Random{} },
		Steering:    true,
		Properties:  []explore.Property{bounded},
	}, false)
	if st.SteeringChecks == 0 || uint64(handled) <= st.SteeringChecks {
		t.Fatalf("steering node: %d handlers ran, %d steering checks: want timers beside the checked messages", handled, st.SteeringChecks)
	}
	t.Logf("steering, random resolver: %d handlers, %d steering checks, %d clones", handled, st.SteeringChecks, clones)
	if uint64(clones) != st.SteeringChecks {
		t.Errorf("steering node with a random resolver: %d clones of the live services for %d steering checks and %d handlers, want one per check",
			clones, st.SteeringChecks, handled)
	}
	predictive := Config{
		NewResolver: func(*Node) Resolver { return NewPredictive(1) },
		ObjectiveFor: func(*Node) explore.Objective {
			return explore.ObjectiveFunc{ObjectiveName: "zero", Fn: func(*explore.World) float64 { return 0 }}
		},
	}
	clones, handled, _, st = run(predictive, false)
	t.Logf("predictive resolver: %d handlers, %d predictions, %d clones", handled, st.Predictions, clones)
	if st.Predictions == 0 || clones != handled {
		t.Errorf("predictive node: %d clones of the live services for %d handlers (%d predictions), want one pre-event clone per handler",
			clones, handled, st.Predictions)
	}
	declared, handled, works, st := run(predictive, true)
	t.Logf("predictive resolver, declared choice sites: %d handlers, %d of them work, %d predictions, %d clones", handled, works, st.Predictions, declared)
	if st.Predictions == 0 || works == 0 || works == handled || declared != works {
		t.Errorf("predictive node declaring its choice sites: %d clones for %d work handlers of %d (%d predictions), want one per work handler and none for a timer or a load",
			declared, works, handled, st.Predictions)
	}
	if st.Choices != uint64(works) {
		t.Errorf("%d choices from %d work handlers, want one each", st.Choices, works)
	}
}

// undeclaredChooser is balSvc declaring no choice site at all, although
// its "work" handler calls Choose: a breach of the sm.ChoiceSites
// contract.
type undeclaredChooser struct{ balSvc }

func (s *undeclaredChooser) ExposesChoice(msgKind, timer string) bool { return false }

// A Choose from an event its service declared choice-free has no
// pre-event state to replay: under Predictive the runtime panics naming
// the event — contained into a PanicRecord under ContainPanics — and
// never resolves it at random. A resolver that reads no pre-event state
// does not consult the declaration.
func TestChooseFromChoiceFreeEventPanics(t *testing.T) {
	deploy := func(cfg Config) (*sim.Engine, *Cluster) {
		return pair(cfg, &undeclaredChooser{balSvc{id: 0, peers: []NodeID{1}}}, &balSvc{id: 1})
	}
	predictive := func(*Node) Resolver { return NewPredictive(1) }
	eng, cl := deploy(Config{NewResolver: predictive, ContainPanics: true})
	inject(cl, 0, "work", 1)
	eng.RunFor(time.Second)
	p := cl.Panics()
	if len(p) != 1 || p[0].Node != 0 || p[0].Event != "m:work" {
		t.Fatalf("panics %+v, want one on node0 labeled m:work", p)
	}
	if msg := fmt.Sprint(p[0].Value); !strings.Contains(msg, "m:work") || !strings.Contains(msg, `"target"`) {
		t.Errorf("panic value %q does not name the event and the choice", msg)
	}
	if n := cl.Node(0); !n.Down() || n.Stats().Choices != 0 || n.event != (pendingEvent{}) {
		t.Errorf("down=%v choices=%d event=%+v: want the node crashed, the choice unresolved, no event pinned", n.Down(), n.Stats().Choices, n.event)
	}

	eng, cl = deploy(Config{NewResolver: predictive})
	inject(cl, 0, "work", 1)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "m:work") {
				t.Errorf("uncontained breach recovered %v, want a panic naming m:work", r)
			}
		}()
		eng.RunFor(time.Second)
	}()

	eng, cl = deploy(Config{NewResolver: func(*Node) Resolver { return Random{} }})
	inject(cl, 0, "work", 1)
	eng.RunFor(time.Second)
	if st := cl.Node(0).Stats(); st.Choices != 1 || cl.Node(1).Service().(*balSvc).val != 1 {
		t.Errorf("random resolver: %d choices, node1 val %d; want the choice resolved and the load delivered", st.Choices, cl.Node(1).Service().(*balSvc).val)
	}
}

func TestPredictiveResolverBalances(t *testing.T) {
	cfg := Config{
		NewResolver:        func(*Node) Resolver { return NewPredictive(2) },
		CheckpointInterval: 50 * time.Millisecond,
		ObjectiveFor: func(n *Node) explore.Objective {
			// Balance objective: negative max val across the world.
			return explore.ObjectiveFunc{ObjectiveName: "balance", Fn: func(w *explore.World) float64 {
				worst := 0
				for _, id := range w.Nodes() {
					if v := w.Service(id).(*balSvc).val; v > worst {
						worst = v
					}
				}
				return -float64(worst)
			}}
		},
	}
	eng, cl := rig(t, 3, cfg)
	// Skew the load: node 1 is heavily loaded, node 2 idle.
	cl.Node(1).Service().(*balSvc).val = 100
	eng.RunFor(300 * time.Millisecond) // let checkpoints propagate
	inject(cl, 0, "work", 5)
	eng.RunFor(300 * time.Millisecond)
	if got := cl.Node(2).Service().(*balSvc).val; got != 5 {
		t.Fatalf("predictive resolver sent load to the loaded peer (node2=%d, node1=%d)",
			got, cl.Node(1).Service().(*balSvc).val)
	}
	if cl.Stats().Predictions == 0 {
		t.Fatal("no predictions recorded")
	}
}

func TestPredictiveCacheHits(t *testing.T) {
	cfg := Config{
		NewResolver:        func(*Node) Resolver { return NewPredictive(2) },
		CheckpointInterval: 50 * time.Millisecond,
		// An objective that discriminates between candidates: only
		// decisive predictions are cached (ties stay randomized).
		ObjectiveFor: func(n *Node) explore.Objective {
			return explore.ObjectiveFunc{ObjectiveName: "balance", Fn: func(w *explore.World) float64 {
				worst := 0
				for _, id := range w.Nodes() {
					if v := w.Service(id).(*balSvc).val; v > worst {
						worst = v
					}
				}
				return -float64(worst)
			}}
		},
	}
	eng, cl := rig(t, 3, cfg)
	cl.Node(1).Service().(*balSvc).val = 50 // make candidate scores differ
	eng.RunFor(200 * time.Millisecond)
	// Two identical events against identical pre-state: second resolution
	// must hit the cache. The balSvc state does not change on "work"
	// (only the chosen peer's does), so pre-state digests match.
	inject(cl, 0, "work", 1)
	eng.RunFor(10 * time.Millisecond)
	ck := cl.Node(0).Stats().CacheHits
	inject(cl, 0, "work", 1)
	eng.RunFor(10 * time.Millisecond)
	if cl.Node(0).Stats().CacheHits != ck+1 {
		t.Fatalf("cache hits = %d, want %d", cl.Node(0).Stats().CacheHits, ck+1)
	}
}

// modeSvc picks a mode on "pick" (1 or 2; 0 until then). Both modes do
// the same in a fault-free future; the properties below tell them apart
// only behind a fault transition.
type modeSvc struct{ mode int }

func (s *modeSvc) Init(sm.Env) {}
func (s *modeSvc) OnMessage(env sm.Env, m *sm.Msg) {
	if m.Kind == "pick" {
		s.mode = 1 + env.Choose(sm.Choice{Name: "mode", N: 2})
	}
}
func (s *modeSvc) OnTimer(sm.Env, string) {}
func (s *modeSvc) Clone() sm.Service      { c := *s; return &c }
func (s *modeSvc) Digest() uint64         { return sm.NewHasher().WriteInt(int64(s.mode)).Sum() }

// TestPredictiveHonorsFaultBudget: predictive resolution explores the
// fault transitions Config.FaultBudget and Config.PartitionFaults allow,
// and only those. Mode 1 (candidate 0) violates a property once a node is
// down, or once node 0 is isolated; mode 2 never does. A decisive
// prediction picks mode 2 and is cached; candidates it cannot tell apart
// tie, and ties are never cached.
func TestPredictiveHonorsFaultBudget(t *testing.T) {
	anyDown := func(w *explore.World) bool { return w.IsDown(0) || w.IsDown(1) }
	isolated := func(w *explore.World) bool { return w.NodeIsolated(0) }
	cases := []struct {
		name       string
		faults     int
		partitions bool
		trigger    func(*explore.World) bool
		decisive   bool
	}{
		{"crash/budget0", 0, false, anyDown, false},
		{"crash/budget1", 1, false, anyDown, true},
		{"isolate/budget1", 1, false, isolated, false},
		{"isolate/budget1+partitions", 1, true, isolated, true},
	}
	for _, tc := range cases {
		unsafeMode := explore.Property{Name: "mode1-fault-free", Check: func(w *explore.World) bool {
			return w.Service(0).(*modeSvc).mode != 1 || !tc.trigger(w)
		}}
		eng := sim.NewEngine(11)
		net := transport.New(eng, netmodel.Uniform(2, 5*time.Millisecond, 0, 0))
		cl := NewCluster(eng, net, Config{
			NewResolver:        func(*Node) Resolver { return NewPredictive(2) },
			CheckpointInterval: 50 * time.Millisecond,
			Properties:         []explore.Property{unsafeMode},
			FaultBudget:        tc.faults,
			PartitionFaults:    tc.partitions,
		})
		cl.AddNode(0, &modeSvc{})
		cl.AddNode(1, &modeSvc{})
		cl.Start()
		eng.RunFor(300 * time.Millisecond) // node 1's checkpoint reaches node 0's model
		n := cl.Node(0)
		inject(cl, 0, "pick", nil)
		eng.RunFor(10 * time.Millisecond)
		mode := n.Service().(*modeSvc).mode
		if n.Stats().Predictions != 1 || mode == 0 {
			t.Fatalf("%s: %d predictions, mode %d: want the pick resolved by one prediction", tc.name, n.Stats().Predictions, mode)
		}
		if decisive := len(n.decisionCache) == 1; decisive != tc.decisive || (decisive && mode != 2) {
			t.Errorf("%s: decisive=%v mode=%d, want decisive=%v (and mode 2 when decisive)", tc.name, decisive, mode, tc.decisive)
		}
	}
}

func TestExecutionSteering(t *testing.T) {
	overload := explore.Property{
		Name: "val<=10",
		Check: func(w *explore.World) bool {
			for _, id := range w.Nodes() {
				if w.Service(id).(*balSvc).val > 10 {
					return false
				}
			}
			return true
		},
	}
	cfg := Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 50 * time.Millisecond,
		Steering:           true,
		Properties:         []explore.Property{overload},
	}
	eng, cl := rig(t, 2, cfg)
	eng.RunFor(200 * time.Millisecond)
	// A "load 100" message would push node 1 over the property bound:
	// steering must drop it and break the connection.
	cl.Node(0).sendRaw(1, "load", 100, 8, true)
	eng.RunFor(200 * time.Millisecond)
	if got := cl.Node(1).Service().(*balSvc).val; got != 0 {
		t.Fatalf("offending message delivered: val=%d", got)
	}
	if cl.Stats().Steered != 1 {
		t.Fatalf("steered = %d, want 1", cl.Stats().Steered)
	}
	// A benign message must pass.
	eng.RunFor(2 * time.Second) // allow reconnection
	cl.Node(0).sendRaw(1, "load", 3, 8, true)
	eng.RunFor(200 * time.Millisecond)
	if got := cl.Node(1).Service().(*balSvc).val; got != 3 {
		t.Fatalf("benign message blocked: val=%d", got)
	}
}

func TestCrashAndRestart(t *testing.T) {
	eng, cl := rig(t, 2, Config{NewResolver: func(*Node) Resolver { return First{} }})
	cl.Node(1).Service().(*balSvc).val = 5
	cl.Crash(1)
	inject(cl, 0, "work", 1)
	eng.RunFor(time.Second)
	if cl.Node(1).Service().(*balSvc).val != 5 {
		t.Fatal("crashed node processed a message")
	}
	if !cl.Node(1).Down() {
		t.Fatal("Down() should be true")
	}
	// Restart with fresh state.
	cl.Restart(1, &balSvc{id: 1, peers: []NodeID{0}})
	inject(cl, 0, "work", 2)
	eng.RunFor(time.Second)
	if got := cl.Node(1).Service().(*balSvc).val; got != 2 {
		t.Fatalf("restarted node val = %d, want 2", got)
	}
}

func TestNetworkModelLearnsLatency(t *testing.T) {
	eng := sim.NewEngine(3)
	top := netmodel.Uniform(2, 30*time.Millisecond, 0, 0)
	net := transport.New(eng, top)
	cl := NewCluster(eng, net, Config{NewResolver: func(*Node) Resolver { return First{} }})
	cl.AddNode(0, &balSvc{id: 0, peers: []NodeID{1}})
	cl.AddNode(1, &balSvc{id: 1, peers: []NodeID{0}})
	cl.Start()
	for i := 0; i < 5; i++ {
		cl.Node(0).sendRaw(1, "load", 1, 8, true)
		eng.RunFor(100 * time.Millisecond)
	}
	got := cl.Node(1).Model().Net.Latency(0, 0)
	if got < 25*time.Millisecond || got > 35*time.Millisecond {
		t.Fatalf("learned latency %v, want ~30ms", got)
	}
}

func TestChoiceTraceLogged(t *testing.T) {
	log := &trace.Log{}
	cfg := Config{NewResolver: func(*Node) Resolver { return First{} }, Trace: log}
	eng := sim.NewEngine(3)
	net := transport.New(eng, netmodel.Uniform(2, time.Millisecond, 0, 0))
	cl := NewCluster(eng, net, cfg)
	svc := &balSvc{id: 0, peers: []NodeID{1}}
	cl.AddNode(0, svc)
	cl.AddNode(1, &balSvc{id: 1})
	cl.Start()
	inject(cl, 0, "work", 1)
	eng.RunFor(time.Second)
	// Choice had no Label, so no CHOOSE line; but Logf path must work.
	cl.Node(0).env().Logf("hello %d", 42)
	found := log.Filter(func(e trace.Entry) bool { return e.Text == "hello 42" })
	if len(found) != 1 {
		t.Fatal("Logf entry missing")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	eng := sim.NewEngine(1)
	net := transport.New(eng, netmodel.Uniform(2, 0, 0, 0))
	cl := NewCluster(eng, net, Config{})
	cl.AddNode(0, &balSvc{id: 0})
	cl.AddNode(0, &balSvc{id: 0})
}

func TestChooseOutOfRangeClamped(t *testing.T) {
	// A resolver returning garbage must not crash the service.
	bad := resolverFunc(func(n *Node, c sm.Choice) int { return 99 })
	eng, cl := func() (*sim.Engine, *Cluster) {
		eng := sim.NewEngine(1)
		net := transport.New(eng, netmodel.Uniform(2, time.Millisecond, 0, 0))
		cl := NewCluster(eng, net, Config{NewResolver: func(*Node) Resolver { return bad }})
		cl.AddNode(0, &balSvc{id: 0, peers: []NodeID{1}})
		cl.AddNode(1, &balSvc{id: 1})
		cl.Start()
		return eng, cl
	}()
	inject(cl, 0, "work", 1)
	eng.RunFor(time.Second)
	if cl.Node(1).Service().(*balSvc).val != 1 {
		t.Fatal("clamped choice did not deliver to peer 0")
	}
}

type resolverFunc func(n *Node, c sm.Choice) int

func (resolverFunc) Name() string                       { return "func" }
func (f resolverFunc) Resolve(n *Node, c sm.Choice) int { return f(n, c) }

func TestCheckpointNeighborsGlobalFallback(t *testing.T) {
	// balSvc does not implement sm.Neighborly, so the runtime checkpoints
	// against full membership (paper §2: "CrystalBall also works with
	// systems with full global knowledge").
	eng, cl := rig(t, 4, Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 50 * time.Millisecond,
	})
	eng.RunFor(300 * time.Millisecond)
	known := cl.Node(0).Model().State.Known()
	if len(known) != 3 {
		t.Fatalf("global-knowledge fallback checkpointed %d peers, want 3", len(known))
	}
}

func TestDatagramDeliveryMarksUnreliable(t *testing.T) {
	eng := sim.NewEngine(3)
	net := transport.New(eng, netmodel.Uniform(2, time.Millisecond, 0, 0))
	cl := NewCluster(eng, net, Config{NewResolver: func(*Node) Resolver { return First{} }})
	var got *sm.Msg
	cl.AddNode(0, &balSvc{id: 0})
	cl.AddNode(1, &probeSvc{onMsg: func(m *sm.Msg) { got = m }})
	cl.Start()
	cl.Node(0).env().SendDatagram(1, "probe", nil, 8)
	eng.RunFor(time.Second)
	if got == nil || !got.Unreliable {
		t.Fatalf("datagram delivery lost the Unreliable mark: %+v", got)
	}
	got = nil
	cl.Node(0).env().Send(1, "probe", nil, 8)
	eng.RunFor(time.Second)
	if got == nil || got.Unreliable {
		t.Fatalf("reliable delivery mismarked: %+v", got)
	}
}

func TestPredictiveFallsBackWithoutPreEventState(t *testing.T) {
	// A choice made during Init has no pre-event clone: the predictive
	// resolver must fall back to a random (valid) decision, not crash —
	// also for a service that declares no choice site, since Init is not
	// a dispatched event.
	for _, svc := range []interface {
		sm.Service
		chosen() int
	}{&initChooser{}, &choiceFreeInitChooser{}} {
		pr := NewPredictive(2)
		eng := sim.NewEngine(3)
		net := transport.New(eng, netmodel.Uniform(2, time.Millisecond, 0, 0))
		cl := NewCluster(eng, net, Config{NewResolver: func(*Node) Resolver { return pr }})
		cl.AddNode(0, svc)
		cl.AddNode(1, &balSvc{id: 1})
		cl.Start()
		if got := svc.chosen(); got < 0 || got > 2 || cl.Node(0).Stats().Choices != 1 {
			t.Fatalf("%T: init-time choice %d (%d choices), want one in [0, 3)", svc, got, cl.Node(0).Stats().Choices)
		}
	}
}

// probeSvc records delivered messages.
type probeSvc struct {
	onMsg func(*sm.Msg)
}

func (p *probeSvc) Init(sm.Env) {}
func (p *probeSvc) OnMessage(env sm.Env, m *sm.Msg) {
	if p.onMsg != nil {
		p.onMsg(m)
	}
}
func (p *probeSvc) OnTimer(sm.Env, string) {}
func (p *probeSvc) Clone() sm.Service      { c := *p; return &c }
func (p *probeSvc) Digest() uint64         { return 1 }

// initChooser exposes a choice from Init.
type initChooser struct {
	got int
}

func (s *initChooser) Init(env sm.Env) {
	s.got = env.Choose(sm.Choice{Name: "boot", N: 3})
}
func (s *initChooser) OnMessage(sm.Env, *sm.Msg) {}
func (s *initChooser) OnTimer(sm.Env, string)    {}
func (s *initChooser) Clone() sm.Service         { c := *s; return &c }
func (s *initChooser) Digest() uint64 {
	return sm.NewHasher().WriteInt(int64(s.got)).Sum()
}
func (s *initChooser) chosen() int { return s.got }

// choiceFreeInitChooser is initChooser declaring no dispatched event a
// choice site.
type choiceFreeInitChooser struct{ initChooser }

func (s *choiceFreeInitChooser) ExposesChoice(msgKind, timer string) bool { return false }

func TestMaterializeWorld(t *testing.T) {
	eng, cl := rig(t, 4, Config{CheckpointInterval: 100 * time.Millisecond})
	eng.RunFor(time.Second) // let checkpoint exchange populate managers
	cl.Crash(2)
	cl.Network().Partition([]NodeID{0}, []NodeID{1})

	w := cl.MaterializeWorld(explore.FirstPolicy, 3, []string{"emit"})
	if len(w.Nodes()) != 4 {
		t.Fatalf("world has %d nodes, want 4", len(w.Nodes()))
	}
	if !w.IsDown(2) || w.IsDown(0) {
		t.Fatal("down flags not mirrored")
	}
	if w.Reachable(0, 1) || !w.Reachable(0, 3) {
		t.Fatal("partition relation not mirrored")
	}
	if !w.TimerPending(0, "emit") || len(w.PendingTimers(2)) != 0 {
		t.Fatal("pending timers wrong: live nodes get them, down nodes do not")
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("materialized world digest: incremental %#x != full %#x", got, want)
	}
	// Services must be clones of the live state.
	w.Service(0).(*balSvc).val = 999
	if cl.Node(0).Service().(*balSvc).val == 999 {
		t.Fatal("materialized world shares live service state")
	}
	// Recovery restores the freshest checkpoint any node retains.
	if w.Recovery == nil {
		t.Fatal("materialized world has no recovery hook")
	}
	rs := w.Recovery(1)
	if rs == nil {
		t.Fatal("no recovery state for a checkpointed node")
	}
	if rs.Digest() != cl.RecoveryState(1).Digest() {
		t.Fatal("recovery hook disagrees with Cluster.RecoveryState")
	}
	if cl.RecoveryState(99) != nil {
		t.Fatal("RecoveryState invented a checkpoint for an unknown node")
	}
}
