package randtree

import (
	"testing"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
)

// steeringRun is the E8 scenario at its test size, steering as given.
func steeringRun(rt core.Config) SteeringResult {
	return RunSteering(ExperimentConfig{N: 15, Seed: 3, Runtime: rt})
}

// TestE8SteeringMasksInconsistency pins the execution-steering result: the
// forged parent-cycle message is delivered (and the cycle forms) without
// steering, and is predicted and dropped with steering on — with no
// false-positive drops of legitimate protocol traffic.
func TestE8SteeringMasksInconsistency(t *testing.T) {
	off := steeringRun(core.Config{})
	if !off.ForgedDelivered || !off.CycleFormed {
		t.Fatalf("without steering the attack should succeed: %+v", off)
	}
	if off.Steered != 0 {
		t.Fatalf("steering disabled but messages dropped: %+v", off)
	}

	on := steeringRun(core.Config{Steering: true})
	if on.ForgedDelivered || on.CycleFormed {
		t.Fatalf("steering failed to mask the inconsistency: %+v", on)
	}
	if on.Steered != 1 {
		t.Fatalf("steered = %d, want exactly the forged message", on.Steered)
	}
	if on.SteeringChecks < 100 {
		t.Fatalf("steering checks = %d — scenario too small to rule out false positives", on.SteeringChecks)
	}
}

// TestSteeringNoFalsePositives runs a steering-enabled deployment with no
// attack at all: the tree must build normally and nothing may be dropped.
func TestSteeringNoFalsePositives(t *testing.T) {
	e := NewExperiment(ExperimentConfig{
		N:     12,
		Seed:  8,
		Setup: SetupChoiceRandom,
		Runtime: core.Config{
			Steering:           true,
			Properties:         []explore.Property{NoParentCycleProperty()},
			CheckpointInterval: 150 * time.Millisecond,
		},
	})
	e.Run(20 * time.Second)
	if got := e.JoinedCount(); got != 12 {
		t.Fatalf("joined %d/12 under steering", got)
	}
	if s := e.Cluster.Stats(); s.Steered != 0 {
		t.Fatalf("steering dropped %d legitimate messages", s.Steered)
	}
}

// TestSteeringUnaffectedByFaultBudget pins the steering/fault separation:
// steering lookaheads run fault-free even when Config.FaultBudget is set, so
// fault-only violations (reachable by a reset alone) cannot make every
// future look unsafe and disarm the steer gate.
func TestSteeringUnaffectedByFaultBudget(t *testing.T) {
	r := RunSteering(ExperimentConfig{N: 15, Seed: 1, Runtime: core.Config{
		Steering:    true,
		Properties:  []explore.Property{NoParentCycleProperty(), NoOrphanedChildProperty()},
		FaultBudget: 1,
	}})
	if r.Steered == 0 || r.CycleFormed {
		t.Fatalf("steering disarmed by fault budget: steered=%d cycle=%v", r.Steered, r.CycleFormed)
	}
}
