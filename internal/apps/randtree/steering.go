package randtree

import (
	"time"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// SteeringResult summarizes one execution-steering run (experiment E8).
type SteeringResult struct {
	SteeringEnabled bool
	// ForgedDelivered reports whether the stale JoinReply reached the
	// victim's handler (steering should prevent this).
	ForgedDelivered bool
	// CycleFormed reports whether the parent two-cycle materialized in
	// the live system.
	CycleFormed bool
	// Steered counts messages dropped by execution steering.
	Steered uint64
	// SteeringChecks counts messages inspected.
	SteeringChecks uint64
	// LookaheadStates counts handler executions inside the steering
	// lookaheads — the engine configuration's footprint.
	LookaheadStates uint64
}

// RunSteering reproduces the CrystalBall execution-steering scenario on
// RandTree: after the tree stabilizes, a stale JoinReply arrives at an
// interior node X from its own child C, claiming C is X's parent. Without
// interposition X adopts it, creating a parent two-cycle that silently
// detaches the pair's subtree. With cfg.Runtime.Steering on, consequence
// prediction sees the rt.no-parent-cycle violation one step into the
// future and drops the message, breaking the connection with the sender
// (the paper's corrective action). The setup defaults to Choice-Random;
// steering defaults to that one property and to checkpoints every 150 ms.
func RunSteering(cfg ExperimentConfig) SteeringResult {
	if cfg.Setup == "" {
		cfg.Setup = SetupChoiceRandom
	}
	if rt := &cfg.Runtime; rt.Steering {
		if rt.Properties == nil {
			rt.Properties = []explore.Property{NoParentCycleProperty()}
		}
		if rt.CheckpointInterval == 0 {
			rt.CheckpointInterval = 150 * time.Millisecond
		}
	}
	e := NewExperiment(cfg)
	e.Run(time.Duration(e.Cfg.N)*e.Cfg.JoinSpacing + 10*time.Second)

	// Find an interior victim X with a child C.
	var victim, child sm.NodeID = -1, -1
	for _, node := range e.Cluster.Nodes() {
		tv := node.Service().(TreeView)
		if node.ID() == 0 || !tv.TreeJoined() || tv.TreeChildCount() == 0 {
			continue
		}
		for i := 1; i < e.Cfg.N; i++ {
			if tv.TreeHasChild(sm.NodeID(i)) {
				victim, child = node.ID(), sm.NodeID(i)
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	res := SteeringResult{SteeringEnabled: cfg.Runtime.Steering}
	if victim < 0 {
		return res
	}
	childDepth := e.Cluster.Node(child).Service().(TreeView).TreeDepth()
	e.Cluster.Node(child).SendApp(victim, KindJoinReply, JoinReply{Parent: child, Depth: childDepth + 1}, msgSize)
	e.Run(2 * time.Second)

	vv := e.Cluster.Node(victim).Service().(TreeView)
	cv := e.Cluster.Node(child).Service().(TreeView)
	res.ForgedDelivered = vv.TreeParent() == child
	res.CycleFormed = vv.TreeParent() == child && cv.TreeParent() == victim
	stats := e.Cluster.Stats()
	res.Steered = stats.Steered
	res.SteeringChecks = stats.SteeringChecks
	res.LookaheadStates = stats.LookaheadStates
	return res
}
