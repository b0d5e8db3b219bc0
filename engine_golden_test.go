// Golden tests pinning the exploration engine's exact output. The dumps in
// testdata/explore_golden.txt were captured from the original sequential
// recursive engine; Explore with Workers=1 and the default ChainDFS
// strategy must keep producing byte-identical reports (states, violations,
// scores) on these worlds across refactors.
package crystalchoice

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// dumpReport renders every deterministic field of a report.
func dumpReport(name string, r *explore.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", name)
	fmt.Fprintf(&b, "states=%d maxdepth=%d truncated=%v\n", r.StatesExplored, r.MaxDepth, r.Truncated)
	fmt.Fprintf(&b, "min=%v mean=%v max=%v\n", r.MinScore, r.MeanScore, r.MaxScore)
	fmt.Fprintf(&b, "violations=%d\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s depth=%d trace=%v\n", v.Property, v.Depth, v.Trace)
	}
	return b.String()
}

// goldenRandtreeWorld is a fully joined 15-node tree with fresh joins
// queued at the root, explored under a seeded random choice policy.
func goldenRandtreeWorld() *explore.World {
	w := explore.NewWorld(explore.RandomPolicy(rand.New(rand.NewSource(42))), 7)
	svcs := make([]*randtree.Choice, 15)
	env := &benchEnv{}
	for i := 0; i < 15; i++ {
		svcs[i] = randtree.NewChoice(sm.NodeID(i), 0)
		w.AddNode(sm.NodeID(i), svcs[i])
		svcs[i].Init(env)
	}
	for i := 1; i < 15; i++ {
		parent := (i - 1) / 2
		svcs[parent].OnMessage(env, &sm.Msg{Src: sm.NodeID(i), Dst: sm.NodeID(parent),
			Kind: randtree.KindJoin, Body: randtree.Join{Joiner: sm.NodeID(i)}})
		svcs[i].OnMessage(env, &sm.Msg{Src: sm.NodeID(parent), Dst: sm.NodeID(i),
			Kind: randtree.KindJoinReply, Body: randtree.JoinReply{Parent: sm.NodeID(parent), Depth: depthOf(i) + 1}})
	}
	for j := 0; j < 4; j++ {
		w.InjectMessage(&sm.Msg{Src: sm.NodeID(100 + j), Dst: 0, Kind: randtree.KindJoin,
			Body: randtree.Join{Joiner: sm.NodeID(100 + j)}})
	}
	// A forged JoinReply telling node 3 its parent is its own child 7:
	// accepting it creates a parent two-cycle, pinning violation traces.
	w.InjectMessage(&sm.Msg{Src: 7, Dst: 3, Kind: randtree.KindJoinReply,
		Body: randtree.JoinReply{Parent: 7, Depth: depthOf(7) + 1}})
	return w
}

// goldenGossipWorld is a small gossip population mid-exchange with round
// timers pending, including a peer outside the neighborhood plus a generic
// model, and an unreliable datagram for the loss branches.
func goldenGossipWorld() *explore.World {
	w := explore.NewWorld(explore.RandomPolicy(rand.New(rand.NewSource(5))), 3)
	view := []sm.NodeID{0, 1, 2, 3}
	for i := 0; i < 4; i++ {
		p := gossip.New(sm.NodeID(i), view)
		w.AddNode(sm.NodeID(i), p)
		w.SetTimerPending(sm.NodeID(i), "g.round")
	}
	w.Generic = explore.ReplyKinds(map[string][]string{
		gossip.KindDigest: {"g.noop", "g.noop2"},
	})
	w.InjectMessage(&sm.Msg{Src: 9, Dst: 0, Kind: gossip.KindPublish, Body: gossip.Publish{}})
	w.InjectMessage(&sm.Msg{Src: 1, Dst: 9, Kind: gossip.KindDigest, Body: gossip.Digest{}})
	w.InjectMessage(&sm.Msg{Src: 2, Dst: 3, Kind: gossip.KindDigest, Body: gossip.Digest{}, Unreliable: true})
	return w
}

// goldenPaxosWorld is a 3-replica consensus group with submissions queued.
func goldenPaxosWorld() *explore.World {
	w := explore.NewWorld(explore.RandomPolicy(rand.New(rand.NewSource(11))), 13)
	for i := 0; i < 3; i++ {
		w.AddNode(sm.NodeID(i), paxos.New(sm.NodeID(i), 3))
	}
	for c := 0; c < 2; c++ {
		w.InjectMessage(&sm.Msg{Src: sm.NodeID(c), Dst: sm.NodeID(c), Kind: paxos.KindSubmit,
			Body: paxos.Submit{Cmd: paxos.Cmd{ID: c, Origin: sm.NodeID(c), SubmitAt: time.Duration(c) * time.Millisecond}}})
	}
	return w
}

// goldenDump runs the fixed exploration suite and renders all reports.
func goldenDump() string {
	var b strings.Builder

	x := explore.NewExplorer(5)
	x.MaxStates = 2048
	x.Properties = []explore.Property{randtree.NoParentCycleProperty(), randtree.DegreeBoundProperty()}
	x.Objective = randtree.BalanceObjective()
	b.WriteString(dumpReport("randtree/depth5", x.Explore(goldenRandtreeWorld())))

	x = explore.NewExplorer(4)
	x.MaxStates = 4096
	x.DropBranches = true
	b.WriteString(dumpReport("gossip/drop+generic", x.Explore(goldenGossipWorld())))

	x = explore.NewExplorer(6)
	x.MaxStates = 1024
	x.Objective = explore.ObjectiveFunc{ObjectiveName: "decided", Fn: func(w *explore.World) float64 {
		total := 0.0
		for _, id := range w.Nodes() {
			if r, ok := w.Service(id).(*paxos.Replica); ok {
				total += float64(r.DecidedCount())
			}
		}
		return total
	}}
	b.WriteString(dumpReport("paxos/depth6", x.Explore(goldenPaxosWorld())))

	// Tiny budget: pins Truncated semantics.
	x = explore.NewExplorer(8)
	x.MaxStates = 10
	b.WriteString(dumpReport("paxos/truncated", x.Explore(goldenPaxosWorld())))

	return b.String()
}

const goldenPath = "testdata/explore_golden.txt"

// goldenFaultWorld is the start world of goldenFaultDump.
func goldenFaultWorld() *explore.World {
	w := explore.NewWorld(explore.RandomPolicy(rand.New(rand.NewSource(21))), 9)
	svcs := make([]*randtree.Choice, 7)
	env := &benchEnv{}
	for i := 0; i < 7; i++ {
		svcs[i] = randtree.NewChoice(sm.NodeID(i), 0)
		w.AddNode(sm.NodeID(i), svcs[i])
		svcs[i].Init(env)
	}
	for i := 1; i < 7; i++ {
		parent := (i - 1) / 2
		svcs[parent].OnMessage(env, &sm.Msg{Src: sm.NodeID(i), Dst: sm.NodeID(parent),
			Kind: randtree.KindJoin, Body: randtree.Join{Joiner: sm.NodeID(i)}})
		svcs[i].OnMessage(env, &sm.Msg{Src: sm.NodeID(parent), Dst: sm.NodeID(i),
			Kind: randtree.KindJoinReply, Body: randtree.JoinReply{Parent: sm.NodeID(parent), Depth: depthOf(i) + 1}})
	}
	w.InjectMessage(&sm.Msg{Src: 100, Dst: 0, Kind: randtree.KindJoin,
		Body: randtree.Join{Joiner: 100}})
	w.Initial = func(id sm.NodeID) sm.Service { return randtree.NewChoice(id, 0) }
	return w
}

// goldenFaultDump runs a small fault-enabled randtree exploration: a fully
// joined 7-node tree explored with one fault transition allowed per path
// (plus a partition-enabled variant), cold restarts supplied by the
// as-deployed service factory. It pins the fault semantics — which nodes
// reset, what recovery replays, which inconsistencies surface at which
// depth — so they cannot drift silently.
func goldenFaultDump() string {
	props := []explore.Property{
		randtree.NoParentCycleProperty(),
		randtree.DegreeBoundProperty(),
		randtree.NoOrphanedChildProperty(),
	}

	var b strings.Builder
	x := explore.NewExplorer(4)
	x.MaxStates = 4096
	x.FaultBudget = 1
	x.Properties = props
	r := x.Explore(goldenFaultWorld())
	fmt.Fprintf(&b, "faults-injected=%d\n", r.FaultsInjected)
	b.WriteString(dumpReport("randtree/faults1", r))

	x = explore.NewExplorer(3)
	x.MaxStates = 4096
	x.FaultBudget = 1
	x.PartitionFaults = true
	x.Properties = props
	r = x.Explore(goldenFaultWorld())
	fmt.Fprintf(&b, "faults-injected=%d\n", r.FaultsInjected)
	b.WriteString(dumpReport("randtree/faults1+partitions", r))
	return b.String()
}

const goldenFaultPath = "testdata/explore_fault_golden.txt"

// TestExploreFaultGolden pins the fault-enabled engine output against its
// captured dump, the companion of TestExploreGolden for FaultBudget > 0.
// Regenerate with UPDATE_EXPLORE_GOLDEN=1 only when a fault-semantics
// change is intended and understood.
func TestExploreFaultGolden(t *testing.T) {
	got := goldenFaultDump()
	if os.Getenv("UPDATE_EXPLORE_GOLDEN") != "" {
		if err := os.WriteFile(goldenFaultPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("fault golden file rewritten")
	}
	want, err := os.ReadFile(goldenFaultPath)
	if err != nil {
		t.Fatalf("missing fault golden file (rerun with UPDATE_EXPLORE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("fault-enabled exploration output diverged:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestExploreGolden compares the engine's output against the captured
// pre-refactor dump. Regenerate with UPDATE_EXPLORE_GOLDEN=1 only when an
// output change is intended and understood.
func TestExploreGolden(t *testing.T) {
	got := goldenDump()
	if os.Getenv("UPDATE_EXPLORE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden file rewritten")
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (rerun with UPDATE_EXPLORE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exploration output diverged from the pre-refactor engine:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
