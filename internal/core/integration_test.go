package core_test

import (
	"testing"
	"time"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/trace"
)

// TestFigure1Dataflow exercises the complete architecture of the paper's
// Figure 1 on a real protocol (RandTree with exposed choices): the
// CrystalBall-enabled runtime interposes between network and service;
// inbound/outbound messages flow; checkpoints circulate and populate the
// predictive model; the service's exposed choices are resolved by
// consequence prediction against the installed objective; and execution
// steering inspects deliveries against the safety properties.
func TestFigure1Dataflow(t *testing.T) {
	log := &trace.Log{}
	e := randtree.NewExperiment(randtree.ExperimentConfig{
		N:     12,
		Seed:  21,
		Setup: randtree.SetupChoiceCrystalBall,
		Runtime: core.Config{
			Steering:   true,
			Properties: []explore.Property{randtree.NoParentCycleProperty()},
			Trace:      log,
		},
	})
	e.Run(15 * time.Second)

	if got := e.JoinedCount(); got != 12 {
		t.Fatalf("deployment incomplete: joined %d/12", got)
	}

	// Network <-> runtime: messages flowed both ways.
	ns := e.Net.Stats()
	if ns.Sent == 0 || ns.Delivered == 0 {
		t.Fatalf("no traffic: %+v", ns)
	}

	s := e.Cluster.Stats()
	// Checkpoints: collected and integrated into the state model.
	if s.Checkpoints == 0 {
		t.Fatal("no checkpoints integrated")
	}
	modeled := false
	for _, n := range e.Cluster.Nodes() {
		if len(n.Model().State.Known()) > 0 {
			modeled = true
			break
		}
	}
	if !modeled {
		t.Fatal("no node built a state model")
	}
	// Exposed choices: resolved, with consequence prediction behind them.
	if s.Choices == 0 {
		t.Fatal("no choices were exposed/resolved")
	}
	if s.Predictions == 0 || s.LookaheadStates == 0 {
		t.Fatalf("choice resolution never consulted the predictive model: %+v", s)
	}
	// Execution steering: interposed on deliveries.
	if s.SteeringChecks == 0 {
		t.Fatal("steering never inspected a delivery")
	}
	if s.Steered != 0 {
		t.Fatalf("steering dropped %d legitimate messages", s.Steered)
	}
	// Network model: passive measurements accumulated.
	learned := false
	for _, n := range e.Cluster.Nodes() {
		if len(n.Model().Net.Known()) > 0 {
			learned = true
			break
		}
	}
	if !learned {
		t.Fatal("no node learned network estimates")
	}
}
