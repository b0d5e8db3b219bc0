package loadbench

import (
	"fmt"
	"time"

	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/iplane"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// deployment is one load run's live cluster plus the per-app op the
// generator fires and the cold-restart factory fault scripts need.
type deployment struct {
	eng   *sim.Engine
	cl    *core.Cluster
	fresh func(sm.NodeID) sm.Service
	// op issues the seq-th client operation (proposal, join, publish).
	op func(seq int)
	// timers marks pending protocol timers when materializing the final
	// state as an explorer world.
	timers []string
}

// build constructs the app's deployment on the same topologies the
// scenario lab uses, so load numbers and scripted-fault results describe
// the same systems.
func build(cfg *Config) (*deployment, error) {
	ccfg := core.Config{
		ContainPanics:       true,
		DecisionSlot:        cfg.DecisionSlot,
		Lookahead:           cfg.Lookahead,
		LookaheadClassCache: cfg.LookaheadClassCache,
	}
	switch cfg.App {
	case "paxos":
		return buildPaxos(cfg, ccfg)
	case "gossip":
		return buildGossip(cfg, ccfg)
	case "tracker":
		return buildTracker(cfg, ccfg)
	}
	return nil, fmt.Errorf("loadbench: unknown app %q (want paxos, gossip, or tracker)", cfg.App)
}

// steering arms execution steering over the app's safety properties.
// Checkpoint exchange is what feeds the predictive model, so it is on
// whenever steering or the predictive resolver needs a model.
func steering(cfg *Config, ccfg *core.Config, props []explore.Property) {
	if cfg.Steering {
		ccfg.Steering = true
		ccfg.Properties = props
	}
	if cfg.Steering || cfg.Resolver == "predictive" {
		ccfg.CheckpointInterval = 150 * time.Millisecond
	}
}

func buildPaxos(cfg *Config, ccfg core.Config) (*deployment, error) {
	eng := sim.NewEngine(cfg.Seed)
	top := netmodel.Uniform(cfg.N, 40*time.Millisecond, 0, 0)
	net := transport.New(eng, top)
	steering(cfg, &ccfg, []explore.Property{paxos.AgreementProperty()})
	if cfg.Resolver == "predictive" {
		plane := iplane.New(top, cfg.Seed+1)
		plane.NoiseFrac = 0.05
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.NewPredictive(2) }
		ccfg.ObjectiveFor = paxos.LatencyObjective(plane, cfg.N)
	} else {
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	}
	cl := core.NewCluster(eng, net, ccfg)
	fresh := paxos.Deploy(cl, cfg.N, 0)
	cl.Start()
	rng := eng.Fork()
	n := cfg.N
	return &deployment{eng: eng, cl: cl, fresh: fresh, timers: paxos.Timers(), op: func(seq int) {
		paxos.SubmitCmd(cl, sm.NodeID(rng.Intn(n)), seq)
	}}, nil
}

func buildGossip(cfg *Config, ccfg core.Config) (*deployment, error) {
	eng := sim.NewEngine(cfg.Seed)
	top := netmodel.Uniform(cfg.N, 20*time.Millisecond, 1<<20, 0)
	net := transport.New(eng, top)
	steering(cfg, &ccfg, []explore.Property{gossip.ReceiptProperty()})
	if cfg.Resolver == "predictive" {
		ccfg.NewResolver = func(*core.Node) core.Resolver {
			pr := core.NewPredictive(3)
			pr.Explore = 0.3
			return pr
		}
		ccfg.ObjectiveFor = gossip.SpreadObjective
	} else {
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	}
	cl := core.NewCluster(eng, net, ccfg)
	fresh := gossip.Deploy(cl, cfg.N)
	cl.Start()
	rng := eng.Fork()
	n := cfg.N
	return &deployment{eng: eng, cl: cl, fresh: fresh, timers: gossip.Timers(), op: func(seq int) {
		gossip.PublishUpdate(cl, sm.NodeID(rng.Intn(n)), seq)
	}}, nil
}

func buildTracker(cfg *Config, ccfg core.Config) (*deployment, error) {
	peers := cfg.N
	eng := sim.NewEngine(cfg.Seed)
	top := netmodel.Dumbbell(peers+1, 5*time.Millisecond, 40*time.Millisecond, 4<<20, 1<<20)
	net := transport.New(eng, top)
	steering(cfg, &ccfg, []explore.Property{tracker.RegistryProperty(peers)})
	if cfg.Resolver == "predictive" {
		// No tracker objective exists; predicted-violation screening alone
		// decides, which is exactly the overhead worth measuring.
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.NewPredictive(2) }
	} else {
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	}
	cl := core.NewCluster(eng, net, ccfg)
	fresh := tracker.Deploy(cl, peers, 16, 64<<10, 4)
	cl.Start()
	rng := eng.Fork()
	return &deployment{eng: eng, cl: cl, fresh: fresh, timers: tracker.Timers(), op: func(seq int) {
		tracker.EnrollOne(cl, peers, sm.NodeID(rng.Intn(peers)), 4)
	}}, nil
}
