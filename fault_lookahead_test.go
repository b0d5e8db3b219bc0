// Acceptance tests for fault-branching exploration (E13): consequence
// prediction with a fault budget must find the rejoin inconsistency — a
// node reset silently orphans its former children — that the scripted
// failure schedule produces on the live cluster, closing the paper's §2
// claim that the randtree inconsistency surfaces only when node resets are
// explored.
package crystalchoice

import (
	"strings"
	"testing"
	"time"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/failure"
	"crystalchoice/internal/sm"
)

// mkFaultExplorer mirrors cmd/mc's explorer configuration.
func mkFaultExplorer(faults int) *explore.Explorer {
	x := explore.NewExplorer(6)
	x.MaxStates = 8192
	x.FaultBudget = faults
	x.Properties = randtree.Properties()
	return x
}

// TestFaultLookaheadFindsRejoinViolation runs the cmd/mc workload — a
// joined 15-node tree snapshotted at 5s — and checks that exploration
// finds the orphaned-child rejoin violation exactly when fault branching
// is enabled: clean with -faults 0, violated through a reset transition
// with -faults 1.
func TestFaultLookaheadFindsRejoinViolation(t *testing.T) {
	e := randtree.NewExperiment(randtree.ExperimentConfig{N: 15, Seed: 1, Setup: randtree.SetupChoiceRandom})
	e.Run(5 * time.Second)
	timers := randtree.Timers()

	if r := mkFaultExplorer(0).Explore(e.Cluster.MaterializeWorld(explore.FirstPolicy, 1, timers)); !r.Safe() {
		t.Fatalf("fault-free lookahead predicted %d violations; faults must be the trigger", len(r.Violations))
	}

	r := mkFaultExplorer(1).Explore(e.Cluster.MaterializeWorld(explore.FirstPolicy, 1, timers))
	if r.Safe() {
		t.Fatalf("fault lookahead found no violation (states=%d faults=%d)", r.StatesExplored, r.FaultsInjected)
	}
	found := false
	for _, v := range r.Violations {
		if v.Property != "rt.no-orphaned-child" {
			continue
		}
		for _, step := range v.Trace {
			if strings.HasPrefix(step, "reset ") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no orphaned-child violation reached through a reset transition (violations=%d)", len(r.Violations))
	}
}

// TestScriptedResetReachesPredictedViolation closes the loop with the
// scripted side of E3: resetting a live interior node via the failure
// schedule drives the deployment into the same orphaned-child state the
// fault lookahead predicts, observed on the materialized world before the
// heartbeat check prunes the stale children.
func TestScriptedResetReachesPredictedViolation(t *testing.T) {
	e := randtree.NewExperiment(randtree.ExperimentConfig{N: 15, Seed: 1, Setup: randtree.SetupChoiceRandom})
	e.Run(5 * time.Second)

	// Pick an interior (non-root) node with children — the victim class
	// whose reset the lookahead flags.
	var victim sm.NodeID = -1
	for _, n := range e.Cluster.Nodes() {
		if n.ID() == 0 {
			continue
		}
		if tv, ok := n.Service().(randtree.TreeView); ok && tv.TreeJoined() && tv.TreeChildCount() > 0 {
			victim = n.ID()
			break
		}
	}
	if victim < 0 {
		t.Fatal("no interior node to reset")
	}

	var s failure.Schedule
	// Schedule times are relative to Install, which runs at the 5s mark.
	s.ResetAt(10*time.Millisecond,
		func(id sm.NodeID) sm.Service { return randtree.NewChoice(id, 0) }, victim)
	s.Install(e.Cluster)
	e.Run(100 * time.Millisecond) // past the reset, before hbCheck prunes

	w := e.Cluster.MaterializeWorld(explore.FirstPolicy, 1, nil)
	if randtree.NoOrphanedChildProperty().Check(w) {
		t.Fatalf("scripted reset of node %v did not orphan its children", victim)
	}
}
