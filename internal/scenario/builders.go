package scenario

import (
	"fmt"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// deployment is one spec's live cluster plus everything the runner needs
// around it: the cold-restart factory for scripted resets, the app's
// safety properties for probes, and the protocol timers to mark pending
// when materializing worlds.
type deployment struct {
	eng    *sim.Engine
	cl     *core.Cluster
	fresh  func(sm.NodeID) sm.Service
	props  []explore.Property
	timers []string
}

// build constructs the spec's deployment: the same topology, resolver,
// and node set the app's hand-written harness would build, via the
// harness's own Deploy. Panic containment is always on — one faulty
// interleaving must not kill a fuzz campaign.
func build(s *Spec) (*deployment, error) {
	switch s.App {
	case "randtree":
		return buildRandtree(s)
	case "gossip":
		return buildGossip(s)
	case "dissem":
		return buildDissem(s)
	case "paxos":
		return buildPaxos(s)
	case "tracker":
		return buildTracker(s)
	}
	return nil, fmt.Errorf("scenario: unknown app %q", s.App)
}

// baseConfig is the cluster config shared by every scenario build:
// contained panics, and — when the spec asks for steering — CrystalBall
// execution steering over the app's safety properties.
func baseConfig(s *Spec, props []explore.Property) core.Config {
	ccfg := core.Config{ContainPanics: true}
	if s.Steering {
		ccfg.Steering = true
		ccfg.Properties = props
		ccfg.CheckpointInterval = 150 * time.Millisecond
	}
	return ccfg
}

func buildRandtree(s *Spec) (*deployment, error) {
	var setup randtree.Setup
	switch s.Variant {
	case "", "choice-random":
		setup = randtree.SetupChoiceRandom
	case "baseline":
		setup = randtree.SetupBaseline
	case "crystalball", "choice-crystalball":
		setup = randtree.SetupChoiceCrystalBall
	default:
		return nil, fmt.Errorf("scenario: unknown randtree variant %q", s.Variant)
	}
	props := randtree.Properties()
	e := randtree.NewExperiment(randtree.ExperimentConfig{
		N: s.N, Seed: s.Seed, Setup: setup,
		Steering: s.Steering, Properties: props, ContainPanics: true,
	})
	return &deployment{
		eng:    e.Eng,
		cl:     e.Cluster,
		fresh:  func(id sm.NodeID) sm.Service { return randtree.FreshService(setup, id) },
		props:  props,
		timers: randtree.Timers(),
	}, nil
}

func buildGossip(s *Spec) (*deployment, error) {
	props := []explore.Property{gossip.ReceiptProperty()}
	ccfg := baseConfig(s, props)
	switch s.Variant {
	case "", "random":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case "restricted":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return &gossip.Restricted{} }
	default:
		return nil, fmt.Errorf("scenario: unknown gossip variant %q", s.Variant)
	}
	eng := sim.NewEngine(s.Seed)
	net := transport.New(eng, netmodel.Uniform(s.N, 20*time.Millisecond, 1<<20, 0))
	cl := core.NewCluster(eng, net, ccfg)
	fresh := gossip.Deploy(cl, s.N)
	cl.Start()
	// Workload: staggered publishes across the first half of the run.
	updates := s.Updates
	if updates == 0 {
		updates = 4
	}
	spacing := s.Duration.D() / time.Duration(2*updates)
	for u := 0; u < updates; u++ {
		u, origin := u, sm.NodeID(u%s.N)
		eng.Schedule(time.Duration(u)*spacing, func() { gossip.PublishUpdate(cl, origin, u) })
	}
	return &deployment{eng: eng, cl: cl, fresh: fresh, props: props, timers: gossip.Timers()}, nil
}

func buildDissem(s *Spec) (*deployment, error) {
	// dissem has no safety property; Validate rejects steering for it.
	ccfg := baseConfig(s, nil)
	switch s.Variant {
	case "", "random":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case "rarest":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return dissem.Rarest{} }
	default:
		return nil, fmt.Errorf("scenario: unknown dissem variant %q", s.Variant)
	}
	blocks := s.Blocks
	if blocks == 0 {
		blocks = 12
	}
	eng := sim.NewEngine(s.Seed)
	net := transport.New(eng, netmodel.Uniform(s.N, 15*time.Millisecond, 1<<20, 0))
	cl := core.NewCluster(eng, net, ccfg)
	fresh := dissem.Deploy(cl, s.N, blocks, 64<<10)
	cl.Start() // the seed's tick timer drives the workload
	return &deployment{eng: eng, cl: cl, fresh: fresh, timers: dissem.Timers()}, nil
}

func buildPaxos(s *Spec) (*deployment, error) {
	props := []explore.Property{paxos.AgreementProperty()}
	ccfg := baseConfig(s, props)
	switch s.Variant {
	case "", "fixed":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.First{} }
	case "roundrobin":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return &core.RoundRobin{} }
	default:
		return nil, fmt.Errorf("scenario: unknown paxos variant %q", s.Variant)
	}
	eng := sim.NewEngine(s.Seed)
	net := transport.New(eng, netmodel.Uniform(s.N, 40*time.Millisecond, 0, 0))
	cl := core.NewCluster(eng, net, ccfg)
	fresh := paxos.Deploy(cl, s.N, 0)
	cl.Start()
	// Workload: commands at rotating origins, 150ms apart like the E7 runs.
	commands := s.Updates
	if commands == 0 {
		commands = 20
	}
	rng := eng.Fork()
	for c := 0; c < commands; c++ {
		c, origin := c, sm.NodeID(rng.Intn(s.N))
		eng.Schedule(time.Duration(c)*150*time.Millisecond, func() { paxos.SubmitCmd(cl, origin, c) })
	}
	return &deployment{eng: eng, cl: cl, fresh: fresh, props: props, timers: paxos.Timers()}, nil
}

func buildTracker(s *Spec) (*deployment, error) {
	total := s.N + 1 // + tracker node
	trackerID := sm.NodeID(s.N)
	left := (total + 1) / 2
	isp := func(id sm.NodeID) int {
		if int(id) < left {
			return 0
		}
		return 1
	}
	props := []explore.Property{tracker.RegistryProperty(s.N)}
	ccfg := baseConfig(s, props)
	switch s.Variant {
	case "", "random":
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case "locality":
		ccfg.NewResolver = func(n *core.Node) core.Resolver {
			if n.ID() == trackerID {
				return tracker.Locality{ISP: isp}
			}
			return core.Random{}
		}
	default:
		return nil, fmt.Errorf("scenario: unknown tracker variant %q", s.Variant)
	}
	blocks := s.Blocks
	if blocks == 0 {
		blocks = 8
	}
	eng := sim.NewEngine(s.Seed)
	net := transport.New(eng, netmodel.Dumbbell(total, 5*time.Millisecond, 40*time.Millisecond, 4<<20, 1<<20))
	cl := core.NewCluster(eng, net, ccfg)
	fresh := tracker.Deploy(cl, s.N, blocks, 64<<10, 4)
	cl.Start()
	tracker.Enroll(cl, s.N)
	return &deployment{eng: eng, cl: cl, fresh: fresh, props: props, timers: tracker.Timers()}, nil
}
