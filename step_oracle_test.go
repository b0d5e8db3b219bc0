// Property-oracle tests for the incremental property contract (DESIGN.md
// §2.4.2), in the style of TestDigestMatchesFullAtEveryExploredState: with
// explore.AuditSteps' referee installed, the verdict the engine reaches at
// every state it checks — by Step, by its Check fallback, or by carrying a
// start world's verdict over from the previous one — must be the one a
// from-scratch Check gives.
package crystalchoice

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// digestClassBound holds while at most k services have a digest divisible
// by four: a property any service supports, that a single handler run
// breaks and mends again, and whose Step has the shape of every counting
// property's — only a touched node that newly enters the class can break
// it, and only then is the count taken.
func digestClassBound(k int) explore.Property {
	return explore.Property{
		Name:  "digest-class-bound",
		Check: func(w *explore.World) bool { return digestClassSize(w) <= k },
		Step: func(w *explore.World, id sm.NodeID, prev sm.Service) bool {
			return !inDigestClass(w.Service(id)) || inDigestClass(prev) || digestClassSize(w) <= k
		},
	}
}

func inDigestClass(s sm.Service) bool { return s.Digest()&3 == 0 }

func digestClassSize(w *explore.World) (n int) {
	for _, id := range w.Nodes() {
		if inDigestClass(w.Service(id)) {
			n++
		}
	}
	return n
}

// successor assembles the next lookahead world the way model.BuildWorld
// would after one more delivery: a fresh world holding a clone of every
// service of w, its pending events, and the first of them executed.
func successor(w *explore.World) *explore.World {
	next := explore.NewWorld(w.Policy, w.Seed+1)
	next.Generic, next.Initial = w.Generic, w.Initial
	for _, id := range w.Nodes() {
		next.AddNode(id, w.Service(id).Clone())
		for _, name := range w.PendingTimers(id) {
			next.SetTimerPending(id, name)
		}
	}
	for _, m := range w.Inflight {
		cp := *m
		next.InjectMessage(&cp)
	}
	if len(next.Inflight) > 0 {
		next.DeliverMessage(0)
	}
	return next
}

func failOnAuditViolations(t *testing.T, what string, r *explore.Report) {
	t.Helper()
	for _, v := range r.Violations {
		if strings.HasSuffix(v.Property, explore.AuditSuffix) {
			t.Errorf("%s: %v", what, v)
		}
	}
}

// TestStepMatchesCheckOnGoldenWorlds explores the golden worlds as the
// golden tests configure them, and four successor worlds of each with the
// previous start world as Explorer.Prior, on one worker and on two: with
// two, forks of one frozen start world are stepped and diffed against
// Prior concurrently.
func TestStepMatchesCheckOnGoldenWorlds(t *testing.T) {
	cases := []struct {
		name  string
		world func() *explore.World
		tune  func(x *explore.Explorer)
		props []explore.Property
	}{
		{"randtree/depth5", goldenRandtreeWorld, func(x *explore.Explorer) { x.Depth, x.MaxStates = 5, 2048 }, randtree.Properties()},
		{"gossip/drop+generic", goldenGossipWorld, func(x *explore.Explorer) { x.Depth, x.MaxStates, x.DropBranches = 4, 4096, true }, nil},
		{"paxos/depth6", goldenPaxosWorld, func(x *explore.Explorer) { x.Depth, x.MaxStates = 6, 1024 },
			[]explore.Property{paxos.AgreementProperty()}},
		{"randtree/faults1", goldenFaultWorld, func(x *explore.Explorer) { x.Depth, x.MaxStates, x.FaultBudget = 4, 4096, 1 }, randtree.Properties()},
		{"randtree/faults1+partitions", goldenFaultWorld, func(x *explore.Explorer) {
			x.Depth, x.MaxStates, x.FaultBudget, x.PartitionFaults = 3, 4096, 1, true
		}, randtree.Properties()},
	}
	for _, workers := range []int{1, 2} {
		refuted, pool := 0, 0
		for _, tc := range cases {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			// The bound is what the largest start world just meets: every
			// start world holds, so each carries to the next, and one more
			// service entering the class violates it.
			roots, bound := []*explore.World{tc.world()}, 0
			if workers > 1 {
				roots[0].Policy = explore.Locked(roots[0].Policy) // successors share it
			}
			for len(roots) < 5 {
				roots = append(roots, successor(roots[len(roots)-1]))
			}
			for _, w := range roots {
				bound = max(bound, digestClassSize(w))
			}
			props, audit := explore.AuditSteps(append([]explore.Property{digestClassBound(bound)}, tc.props...))
			var prior *explore.World
			for _, w := range roots {
				x := explore.NewExplorer(0)
				tc.tune(x)
				x.Workers = workers
				x.Properties = props
				x.Prior = prior
				r := x.Explore(w)
				failOnAuditViolations(t, name, r)
				pool = max(pool, r.WorkerHighWater)
				prior = w
			}
			if audit.Mismatches != 0 || audit.Stepped == 0 || audit.Carried == 0 || audit.Full == 0 {
				t.Errorf("%s: audit %v: want no mismatch, and Step, a carried start world and the Check fallback all exercised", name, audit)
			}
			refuted += audit.Refuted
		}
		if refuted == 0 {
			t.Errorf("workers=%d: no Step returned false on any golden world: the bound is never crossed", workers)
		}
		if pool != workers {
			t.Errorf("workers=%d: the largest pool that ran had %d workers", workers, pool)
		}
	}
}

// randtreeSnapshot materializes an n-node randtree deployment at 5 s the
// way cmd/mc and the mc_offline benchmark do, and with -inject-cycle a
// forged JoinReply from a child to its parent on top.
func randtreeSnapshot(n, workers int, forge bool) *explore.World {
	e := randtree.NewExperiment(randtree.ExperimentConfig{N: n, Seed: 1, Setup: randtree.SetupChoiceRandom})
	e.Run(5 * time.Second)
	policy := explore.RandomPolicy(rand.New(rand.NewSource(3)))
	if workers > 1 {
		policy = explore.Locked(policy)
	}
	w := e.Cluster.MaterializeWorld(policy, 1, randtree.Timers())
	for _, node := range e.Cluster.Nodes() {
		tv := node.Service().(randtree.TreeView)
		if !forge || node.ID() == 0 || !tv.TreeJoined() {
			continue
		}
		for c := sm.NodeID(1); int(c) < n; c++ {
			if tv.TreeHasChild(c) {
				d := e.Cluster.Node(c).Service().(randtree.TreeView).TreeDepth()
				w.InjectMessage(&sm.Msg{Src: c, Dst: node.ID(), Kind: randtree.KindJoinReply,
					Body: randtree.JoinReply{Parent: c, Depth: d + 1}})
				return w
			}
		}
	}
	return w
}

// classDigests returns the digests of a report's violation classes.
func classDigests(r *explore.Report) []uint64 {
	var out []uint64
	for _, c := range r.ViolationClasses() {
		out = append(out, c.Digest)
	}
	return out
}

// TestRandtreeStepsMatchCheck holds the three tree properties' Steps to
// their Checks on the worlds offline checking explores: the 31-node
// snapshot mc_offline measures, breadth-first on one and two workers, and
// the 15-node snapshot with cmd/mc's forged parent cycle. The verdict at
// every state is Check's, and the violation classes are those of a run
// without Steps.
func TestRandtreeStepsMatchCheck(t *testing.T) {
	cases := []struct {
		name           string
		n, workers     int
		forge          bool
		depth, budget  int
		wantViolations bool
	}{
		{"mc_offline/w1", 31, 1, false, 10, 10000, false},
		{"mc_offline/w2", 31, 2, false, 10, 10000, false},
		{"forged-cycle", 15, 1, true, 6, 8192, true},
	}
	for _, tc := range cases {
		explore1 := func(props []explore.Property) *explore.Report {
			x := explore.NewExplorer(tc.depth)
			x.MaxStates = tc.budget
			x.Workers = tc.workers
			x.Strategy = explore.BFS{}
			x.Properties = props
			return x.Explore(randtreeSnapshot(tc.n, tc.workers, tc.forge))
		}
		props, audit := explore.AuditSteps(randtree.Properties())
		r := explore1(props)
		failOnAuditViolations(t, tc.name, r)
		if audit.Mismatches != 0 || audit.Stepped == 0 || (tc.wantViolations && audit.Refuted == 0) {
			t.Errorf("%s: audit %v: want no mismatch, Step exercised and, on the forged world, returning false", tc.name, audit)
		}
		var plain []explore.Property
		for _, p := range randtree.Properties() {
			plain = append(plain, explore.Property{Name: p.Name, Check: p.Check})
		}
		want := explore1(plain)
		if got := classDigests(r); !slices.Equal(got, classDigests(want)) || (len(got) > 0) != tc.wantViolations {
			t.Errorf("%s: violation classes %x with Steps, %x with Check only (want violations: %v)", tc.name, got, classDigests(want), tc.wantViolations)
		}
		t.Logf("%s: %d states, %d classes; audit %v", tc.name, r.StatesExplored, len(r.ViolationClasses()), audit)
	}
}

// TestStepMatchesCheckOnConflictingDecision plants the violation paxos
// must never show: replica 0 has decided instance 0, and a Learn carrying
// another command for it is in flight to replica 1. Delivering it is a
// Step that returns false; what the fan-out explores beyond that state has
// a violating parent and goes back to Check.
func TestStepMatchesCheckOnConflictingDecision(t *testing.T) {
	for _, strat := range []explore.Strategy{explore.ChainDFS{}, explore.BFS{}} {
		w := goldenPaxosWorld()
		w.Service(0).OnMessage(&benchEnv{}, &sm.Msg{Src: 0, Dst: 0, Kind: paxos.KindLearn,
			Body: paxos.Learn{Inst: 0, Val: paxos.Cmd{ID: 100, Origin: 0}}})
		w.InjectMessage(&sm.Msg{Src: 2, Dst: 1, Kind: paxos.KindLearn,
			Body: paxos.Learn{Inst: 0, Val: paxos.Cmd{ID: 200, Origin: 2}}})
		props, audit := explore.AuditSteps([]explore.Property{paxos.AgreementProperty()})
		x := explore.NewExplorer(4)
		x.MaxStates = 1024
		x.Strategy = strat
		x.Properties = props
		r := x.Explore(w)
		failOnAuditViolations(t, strat.Name(), r)
		if r.Safe() || audit.Mismatches != 0 || audit.Refuted == 0 {
			t.Errorf("%s: %d violations, audit %v: want the conflicting decision found by a Step returning false", strat.Name(), len(r.Violations), audit)
		}
		if _, fans := strat.(explore.BFS); fans && audit.Full < 2 {
			t.Errorf("%s: audit %v: want Check at the start world and again below the violating state", strat.Name(), audit)
		}
	}
}

// scratchLookahead assembles node n's lookahead world at now the way
// model.BuildWorld did before the model kept a standing world: a fresh
// world holding a clone of the live state and of every checkpoint young
// enough to model.
func scratchLookahead(n *core.Node, now time.Duration) *explore.World {
	m := n.Model()
	w := explore.NewWorld(nil, 1)
	w.Now = now
	w.AddNode(m.Owner, n.Service().Clone())
	for _, id := range m.State.Known() {
		if e, _ := m.State.Get(id); id != m.Owner && (m.MaxAge <= 0 || now-e.At <= m.MaxAge) {
			w.AddNode(id, e.State.Clone())
		}
	}
	return w
}

// TestStepMatchesCheckOnLiveDeployment runs a steered paxos deployment with
// a predictive resolver, a crash and a cold restart, under the referee:
// several hundred deliveries each pay steerAway's lookaheads, whose start
// worlds are checked against the previous one's (core.Node.explore). Every
// 20 ms each live node's lookahead world — a fork of its model's standing
// world, patched by every checkpoint since — is held to the from-scratch
// build of the same model.
func TestStepMatchesCheckOnLiveDeployment(t *testing.T) {
	const sites = 5
	eng := sim.NewEngine(3)
	net := transport.New(eng, netmodel.Uniform(sites, 5*time.Millisecond, 0, 0))
	props, audit := explore.AuditSteps([]explore.Property{paxos.AgreementProperty()})
	cl := core.NewCluster(eng, net, core.Config{
		Steering:           true,
		Properties:         props,
		CheckpointInterval: 50 * time.Millisecond,
		NewResolver:        func(*core.Node) core.Resolver { return core.NewPredictive(2) },
	})
	fresh := paxos.Deploy(cl, sites, 0)
	cl.Start()
	for c := 0; c < 60; c++ {
		eng.Schedule(time.Duration(c)*20*time.Millisecond, func() { paxos.SubmitCmd(cl, sm.NodeID(c%sites), c) })
	}
	compared := 0
	for at := 10 * time.Millisecond; at < 3*time.Second; at += 20 * time.Millisecond {
		eng.Schedule(at, func() {
			for _, n := range cl.Nodes() {
				if n.Down() {
					continue
				}
				now := time.Duration(eng.Now())
				got, want := n.Model().BuildWorld(n.Service().Clone(), now, nil, 1), scratchLookahead(n, now)
				if got.Digest() != want.DigestFull() || got.DigestFull() != want.DigestFull() || !slices.Equal(got.Nodes(), want.Nodes()) {
					t.Errorf("node %v at %v: lookahead world %x (from scratch %x) over %v, reference %x over %v",
						n.ID(), now, got.Digest(), got.DigestFull(), got.Nodes(), want.DigestFull(), want.Nodes())
				}
				compared++
			}
		})
	}
	eng.Schedule(500*time.Millisecond, func() { cl.Crash(2) })
	eng.Schedule(800*time.Millisecond, func() { cl.Restart(2, fresh(2)) })
	eng.RunFor(3 * time.Second)

	st := cl.Stats()
	if st.SteeringChecks < 300 || st.Predictions == 0 {
		t.Fatalf("only %d steering checks and %d predictions: the run is too small to mean anything", st.SteeringChecks, st.Predictions)
	}
	if audit.Mismatches != 0 {
		t.Errorf("%d states where the engine's verdict was not Check's", audit.Mismatches)
	}
	// Nearly every start world is carried; the exceptions are each
	// node's first, the ones after a crash or restart, and those whose
	// model gained or lost a checkpoint since the last.
	if audit.Carried == 0 || audit.Full*10 > audit.Carried {
		t.Errorf("audit %v: want start worlds carried from their predecessors, with few full checks", audit)
	}
	// Peers are the model's entries by reference, the same from root to
	// root: a carried root differs from its predecessor in the owner's
	// state and in the peers whose checkpoint arrived in between.
	if audit.Touched > audit.Carried+int(st.Checkpoints) {
		t.Errorf("audit %v: carried roots touch more than their owner and the %d checkpoints received", audit, st.Checkpoints)
	}
	if compared < 500 {
		t.Errorf("only %d lookahead worlds compared with the from-scratch build", compared)
	}
	t.Logf("steering checks %d, lookahead states %d; audit %v", st.SteeringChecks, st.LookaheadStates, audit)
}
