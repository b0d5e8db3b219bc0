package scenario

import (
	"cmp"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sm"
)

// variants maps each app's spec variant names to the harness policy they
// select; "" is the app's non-predictive default. Validate rejects any
// other name.
var variants = map[string]map[string]string{
	"randtree": {
		"":                   string(randtree.SetupChoiceRandom),
		"choice-random":      string(randtree.SetupChoiceRandom),
		"baseline":           string(randtree.SetupBaseline),
		"crystalball":        string(randtree.SetupChoiceCrystalBall),
		"choice-crystalball": string(randtree.SetupChoiceCrystalBall),
	},
	"gossip":  {"": string(gossip.StrategyRandom), "random": string(gossip.StrategyRandom), "restricted": string(gossip.StrategyRestricted)},
	"dissem":  {"": string(dissem.StrategyRandom), "random": string(dissem.StrategyRandom), "rarest": string(dissem.StrategyRarest)},
	"paxos":   {"": string(paxos.PolicyFixed), "fixed": string(paxos.PolicyFixed), "roundrobin": string(paxos.PolicyRoundRobin)},
	"tracker": {"": string(tracker.PolicyRandom), "random": string(tracker.PolicyRandom), "locality": string(tracker.PolicyLocality)},
}

// deployment is one spec's live cluster plus everything the runner needs
// around it: the cold-restart factory for scripted resets, the app's
// safety properties for probes, and the protocol timers to mark pending
// when materializing worlds.
type deployment struct {
	cl     *core.Cluster
	fresh  func(sm.NodeID) sm.Service
	props  []explore.Property
	timers []string
}

// build translates a validated spec into its app's ExperimentConfig and
// builds the deployment with the app's own NewExperiment — the harness's
// topology, policy, Deploy, start and client, node for node. The runtime
// always contains panics (one faulty interleaving must not kill a fuzz
// campaign) and, when the spec asks, steers over the app's safety
// properties. Only gossip's publish schedule is the lab's own.
func build(s *Spec) *deployment {
	policy := variants[s.App][s.Variant]
	d := &deployment{}
	// runtimeFor records the app's safety properties for the probes and
	// returns the runtime configuration the spec runs under.
	runtimeFor := func(props ...explore.Property) core.Config {
		d.props = props
		rt := core.Config{ContainPanics: true}
		if s.Steering {
			rt.Steering, rt.Properties, rt.CheckpointInterval = true, props, 150*time.Millisecond
		}
		return rt
	}
	switch s.App {
	case "randtree":
		e := randtree.NewExperiment(randtree.ExperimentConfig{N: s.N, Seed: s.Seed, Setup: randtree.Setup(policy),
			Runtime: runtimeFor(randtree.Properties()...)})
		d.cl, d.fresh, d.timers = e.Cluster, e.Fresh, randtree.Timers()
	case "gossip":
		e := gossip.NewExperiment(gossip.ExperimentConfig{N: s.N, Seed: s.Seed, Strategy: gossip.Strategy(policy),
			Runtime: runtimeFor(gossip.ReceiptProperty())})
		d.cl, d.fresh, d.timers = e.Cluster, e.Fresh, gossip.Timers()
		// Staggered publishes across the first half of the run.
		updates := cmp.Or(s.Updates, 4)
		spacing := s.Duration.D() / time.Duration(2*updates)
		for u := 0; u < updates; u++ {
			origin := sm.NodeID(u % s.N)
			e.Eng.Schedule(time.Duration(u)*spacing, func() { gossip.PublishUpdate(e.Cluster, origin, u) })
		}
	case "dissem":
		e := dissem.NewExperiment(dissem.ExperimentConfig{N: s.N, Blocks: cmp.Or(s.Blocks, 12), Seed: s.Seed, Strategy: dissem.Strategy(policy),
			Runtime: runtimeFor()})
		d.cl, d.fresh, d.timers = e.Cluster, e.Fresh, dissem.Timers()
	case "paxos":
		e := paxos.NewExperiment(paxos.ExperimentConfig{Sites: s.N, Seed: s.Seed, Policy: paxos.Policy(policy),
			Commands: cmp.Or(s.Updates, 20), UniformLatency: 40 * time.Millisecond,
			Runtime: runtimeFor(paxos.AgreementProperty())})
		d.cl, d.fresh, d.timers = e.Cluster, e.Fresh, paxos.Timers()
	case "tracker":
		e := tracker.NewExperiment(tracker.ExperimentConfig{Peers: s.N, Blocks: cmp.Or(s.Blocks, 8), Seed: s.Seed, Policy: tracker.Policy(policy),
			Runtime: runtimeFor(tracker.RegistryProperty(s.N))})
		d.cl, d.fresh, d.timers = e.Cluster, e.Fresh, tracker.Timers()
	}
	return d
}
