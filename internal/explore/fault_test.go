package explore

import (
	"reflect"
	"strings"
	"testing"

	"crystalchoice/internal/sm"
)

// rejoiner is a toy service with a live recovery protocol: Init announces
// the node to node 0 when it is not yet joined and re-arms its tick timer,
// so recovering it inside a world produces observable consequences.
type rejoiner struct {
	id     NodeID
	joined bool
	heard  int
}

func (r *rejoiner) Init(env sm.Env) {
	if !r.joined && r.id != 0 {
		env.Send(0, "join", nil, 0)
	}
	env.SetTimer("rj.tick", 0)
}

func (r *rejoiner) OnMessage(env sm.Env, m *sm.Msg) {
	switch m.Kind {
	case "join":
		r.heard++
		env.Send(m.Src, "welcome", nil, 0)
	case "welcome":
		r.joined = true
	}
}

func (r *rejoiner) OnTimer(env sm.Env, name string) {}
func (r *rejoiner) Clone() sm.Service               { c := *r; return &c }
func (r *rejoiner) Digest() uint64 {
	return sm.NewHasher().WriteNode(r.id).WriteBool(r.joined).WriteInt(int64(r.heard)).Sum()
}

func rejoinerWorld(n int) *World {
	w := NewWorld(FirstPolicy, 5)
	for i := 0; i < n; i++ {
		w.AddNode(NodeID(i), &rejoiner{id: NodeID(i), joined: true})
		w.SetTimerPending(NodeID(i), "rj.tick")
	}
	return w
}

// TestCrashTransition checks Crash marks the node down, cancels its
// timers (as the live Cluster.Crash does), and keeps the maintained digest
// equal to the full recomputation.
func TestCrashTransition(t *testing.T) {
	w := rejoinerWorld(3)
	before := w.Digest()
	w.Crash(1)
	if !w.IsDown(1) {
		t.Fatalf("crashed node not down")
	}
	if len(w.PendingTimers(1)) != 0 {
		t.Fatalf("crash left timers pending: %v", w.PendingTimers(1))
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after crash: incremental %#x != full %#x", got, want)
	}
	if w.Digest() == before {
		t.Fatalf("crash did not move the digest")
	}
	w.Crash(1) // idempotent
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after double crash: incremental %#x != full %#x", got, want)
	}
	w.Crash(99) // unknown node: ignored, digest untouched
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after unknown-node crash: incremental %#x != full %#x", got, want)
	}
}

// TestRecoverWarm checks that recovery without any hook keeps the
// pre-crash state and replays Init (re-arming timers, producing the
// rejoin announcement).
func TestRecoverWarm(t *testing.T) {
	w := rejoinerWorld(3)
	w.Service(1).(*rejoiner).heard = 7
	w.Crash(1)
	if msgs := w.Recover(2, nil); msgs != nil {
		t.Fatalf("recovering a live node did something: %v", msgs)
	}
	w.Recover(1, nil)
	if w.IsDown(1) {
		t.Fatalf("recovered node still down")
	}
	svc := w.Service(1).(*rejoiner)
	if svc.heard != 7 || !svc.joined {
		t.Fatalf("warm recovery lost state: %+v", svc)
	}
	if !w.TimerPending(1, "rj.tick") {
		t.Fatalf("Init did not re-arm the tick timer")
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after recover: incremental %#x != full %#x", got, want)
	}
}

// TestRecoverHookOrder checks the resolution order of restart state:
// Recovery (checkpoint) first, Initial (cold state) when Recovery yields
// nothing, warm otherwise — and that a cold restart replays the recovery
// protocol whose sends become in-flight consequences.
func TestRecoverHookOrder(t *testing.T) {
	mk := func() *World {
		w := rejoinerWorld(3)
		w.Crash(1)
		return w
	}

	w := mk()
	w.Recovery = func(id NodeID) sm.Service { return &rejoiner{id: id, joined: true, heard: 42} }
	w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
	w.Recover(1, nil)
	if got := w.Service(1).(*rejoiner).heard; got != 42 {
		t.Fatalf("recovery hook ignored: heard=%d", got)
	}

	w = mk()
	w.Recovery = func(id NodeID) sm.Service { return nil } // no checkpoint retained
	w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
	msgs := w.Recover(1, nil)
	svc := w.Service(1).(*rejoiner)
	if svc.joined || svc.heard != 0 {
		t.Fatalf("cold restart kept state: %+v", svc)
	}
	if len(msgs) != 1 || msgs[0].Kind != "join" || msgs[0].Dst != 0 {
		t.Fatalf("cold restart did not announce itself: %v", msgs)
	}
	if len(w.Inflight) != 1 {
		t.Fatalf("recovery consequences not in flight: %v", w.Inflight)
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after cold recover: incremental %#x != full %#x", got, want)
	}
}

// TestResetGatedPerNode checks fault enumeration consults the per-node
// recovery probe: reset branches appear only for nodes whose Recovery
// hook can actually supply state (or when a cold Initial exists).
func TestResetGatedPerNode(t *testing.T) {
	w := rejoinerWorld(3)
	w.Recovery = func(id NodeID) sm.Service {
		if id == 1 {
			return &rejoiner{id: id, joined: true}
		}
		return nil
	}
	w.HasRecovery = func(id NodeID) bool { return id == 1 }
	x := NewExplorer(3)
	x.FaultBudget = 1
	resets := map[NodeID]bool{}
	for _, a := range x.faultActions(w, 0) {
		if a.Kind == ActionReset {
			resets[a.Node] = true
		}
	}
	if !resets[1] || resets[0] || resets[2] {
		t.Fatalf("reset branches not gated by the recovery probe: %v", resets)
	}
	w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
	n := 0
	for _, a := range x.faultActions(w, 0) {
		if a.Kind == ActionReset {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("cold Initial should enable reset everywhere: %d resets", n)
	}
}

// TestPartitionGatesDelivery checks the reachability relation: a
// partitioned pair's messages are neither enabled nor delivered, healing
// restores them, and the digest tracks every transition incrementally.
func TestPartitionGatesDelivery(t *testing.T) {
	w := rejoinerWorld(3)
	w.InjectMessage(&sm.Msg{Src: 0, Dst: 1, Kind: "join"})
	base := w.Digest()
	w.PartitionPair(0, 1)
	if w.Reachable(0, 1) || !w.Reachable(1, 2) {
		t.Fatalf("partition relation wrong")
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after partition: incremental %#x != full %#x", got, want)
	}
	if w.Digest() == base {
		t.Fatalf("partition did not move the digest")
	}
	x := NewExplorer(3)
	for _, a := range x.enabled(w) {
		if a.Kind == ActionMessage {
			t.Fatalf("partitioned message still enabled: %v", a.Msg)
		}
	}
	if msgs := w.DeliverMessage(0); msgs != nil {
		t.Fatalf("partitioned delivery executed the handler")
	}
	if w.Service(1).(*rejoiner).heard != 0 {
		t.Fatalf("partitioned message reached the service")
	}
	w.HealPair(0, 1)
	if !w.Reachable(0, 1) || w.Partitioned() {
		t.Fatalf("heal did not restore reachability")
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after heal: incremental %#x != full %#x", got, want)
	}
	if w.Digest() != base {
		// The delivered-and-dropped message is gone, so digests differ;
		// re-inject to compare the partition-free component.
		w.InjectMessage(&sm.Msg{Src: 0, Dst: 1, Kind: "join"})
		if w.Digest() != base {
			t.Fatalf("heal did not return the partition component to zero")
		}
	}
}

// TestIsolateHealNode checks node-level isolation (the explorer's
// partition action) and its inverse.
func TestIsolateHealNode(t *testing.T) {
	w := rejoinerWorld(4)
	w.IsolateNode(2)
	if !w.NodeIsolated(2) || w.NodeIsolated(1) {
		t.Fatalf("isolation state wrong")
	}
	if w.Reachable(2, 0) || !w.Reachable(0, 1) {
		t.Fatalf("isolation cut the wrong pairs")
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after isolate: incremental %#x != full %#x", got, want)
	}
	w.Partition([]NodeID{0}, []NodeID{1, 3})
	w.HealNode(2)
	if w.NodeIsolated(2) || w.Reachable(0, 1) || w.Reachable(0, 3) {
		t.Fatalf("HealNode touched unrelated partitions")
	}
	if got, want := w.Digest(), w.DigestFull(); got != want {
		t.Fatalf("after heal-node: incremental %#x != full %#x", got, want)
	}
}

// TestHealOfferedForPartialPartition checks a pre-existing group
// partition (e.g. mirrored from the live network) is healable within one
// fault transition: partially cut nodes offer both isolate and heal.
func TestHealOfferedForPartialPartition(t *testing.T) {
	w := rejoinerWorld(4)
	w.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	x := NewExplorer(3)
	x.FaultBudget = 1
	x.PartitionFaults = true
	heals, isolates := 0, 0
	for _, a := range x.faultActions(w, 0) {
		switch a.Kind {
		case ActionHeal:
			heals++
		case ActionPartition:
			isolates++
		}
	}
	if heals != 4 || isolates != 4 {
		t.Fatalf("partially cut nodes must offer both transitions: heals=%d isolates=%d", heals, isolates)
	}
}

// faultSteps counts fault-transition labels in a violation trace.
func faultSteps(trace []string) int {
	n := 0
	for _, step := range trace {
		for _, p := range []string{"crash ", "recover ", "reset ", "isolate ", "heal "} {
			if strings.HasPrefix(step, p) {
				n++
				break
			}
		}
	}
	return n
}

// TestFaultBudgetRespected records every explored state's trace (via an
// always-violated property) and checks no path exceeds the fault budget,
// for both strategies.
func TestFaultBudgetRespected(t *testing.T) {
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		for _, budget := range []int{0, 1, 2} {
			w := rejoinerWorld(3)
			w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
			x := NewExplorer(5)
			x.MaxStates = 1 << 14
			x.Strategy = strat
			x.FaultBudget = budget
			x.PartitionFaults = true
			x.Properties = []Property{{Name: "never", Check: func(*World) bool { return false }}}
			r := x.Explore(w)
			maxFaults := 0
			for _, v := range r.Violations {
				if n := faultSteps(v.Trace); n > maxFaults {
					maxFaults = n
				}
			}
			if maxFaults > budget {
				t.Errorf("%s budget %d: a path took %d fault transitions", strat.Name(), budget, maxFaults)
			}
			if budget == 0 && r.FaultsInjected != 0 {
				t.Errorf("%s: FaultsInjected=%d with budget 0", strat.Name(), r.FaultsInjected)
			}
			if budget > 0 && r.FaultsInjected == 0 {
				t.Errorf("%s budget %d: no fault transitions explored", strat.Name(), budget)
			}
		}
	}
}

// TestFaultRunDeterministic pins Workers=1 determinism of fault-enabled
// exploration: two identical runs must produce identical reports, for
// every strategy.
func TestFaultRunDeterministic(t *testing.T) {
	for _, strat := range []Strategy{ChainDFS{}, BFS{}} {
		run := func() *Report {
			w := rejoinerWorld(3)
			w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
			x := NewExplorer(4)
			x.MaxStates = 1 << 14
			x.Strategy = strat
			x.FaultBudget = 2
			x.PartitionFaults = true
			return stripElapsed(x.Explore(w))
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: fault-enabled runs diverge:\n%+v\n%+v", strat.Name(), a, b)
		}
	}
}

// TestChainFindsCrashThenRecover checks that with budget 2 a ChainDFS
// path crashes a node and later recovers it — the two-step fault
// interleaving reset compresses into one transition.
func TestChainFindsCrashThenRecover(t *testing.T) {
	w := rejoinerWorld(2)
	x := NewExplorer(4)
	x.MaxStates = 1 << 14
	x.FaultBudget = 2
	x.Properties = []Property{{Name: "never", Check: func(*World) bool { return false }}}
	r := x.Explore(w)
	found := false
	for _, v := range r.Violations {
		crashAt := -1
		for i, step := range v.Trace {
			if strings.HasPrefix(step, "crash ") {
				crashAt = i
			}
			if crashAt >= 0 && i > crashAt && strings.HasPrefix(step, "recover ") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no path crashed and then recovered a node (violations: %d)", len(r.Violations))
	}
}

// TestParallelFaultExploration drives fault branching across a worker
// pool — the configuration the CI race job exists for: concurrent forks
// share the partition relation, down maps, and recovery hooks, and every
// invariant the sequential engine guarantees must survive.
func TestParallelFaultExploration(t *testing.T) {
	w := rejoinerWorld(4)
	w.Initial = func(id NodeID) sm.Service { return &rejoiner{id: id} }
	const maxStates = 1 << 14
	x := NewExplorer(5)
	x.MaxStates = maxStates
	x.Workers = 4
	x.FaultBudget = 2
	x.PartitionFaults = true
	x.Properties = []Property{{Name: "never", Check: func(*World) bool { return false }}}
	r := x.Explore(w)
	if r.StatesExplored == 0 || r.FaultsInjected == 0 {
		t.Fatalf("parallel fault run explored nothing: %+v", r)
	}
	if r.StatesExplored > maxStates+x.Workers+1 {
		t.Fatalf("budget blown: %d states with MaxStates=%d", r.StatesExplored, maxStates)
	}
	for _, v := range r.Violations {
		if n := faultSteps(v.Trace); n > 2 {
			t.Fatalf("fault budget blown on %v", v.Trace)
		}
	}
	// The start world must be untouched by the run.
	if w.Partitioned() || w.IsDown(0) || w.IsDown(1) {
		t.Fatal("exploration mutated the start world")
	}
}

// TestFaultForkIsolation mutates fault state on forks and checks ancestors
// never observe it — the COW contract extended to partitions and recovery.
func TestFaultForkIsolation(t *testing.T) {
	w := rejoinerWorld(4)
	before := w.Digest()
	for i := 0; i < 4; i++ {
		c := w.Clone()
		c.Crash(NodeID(i))
		c.IsolateNode(NodeID((i + 1) % 4))
		c.Recover(NodeID(i), nil)
		if got, want := c.Digest(), c.DigestFull(); got != want {
			t.Fatalf("fork %d: incremental %#x != full %#x", i, got, want)
		}
	}
	if got := w.Digest(); got != before {
		t.Fatalf("parent digest drifted after fork faults: %#x != %#x", got, before)
	}
	if w.IsDown(0) || w.Partitioned() || len(w.PendingTimers(0)) == 0 {
		t.Fatalf("fork faults leaked into the parent")
	}
}
