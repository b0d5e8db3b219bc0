package crystalchoice

import (
	"testing"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// TestChoiceSitesAudit runs every app that exposes a choice under the
// Predictive resolver, with panics contained, at two seeds. Each service
// declares its choice sites (sm.ChoiceSites) and is snapshotted only
// before them, so a Choose from an event it declared choice-free would be
// a contained panic. Every run must resolve choices and contain none.
func TestChoiceSitesAudit(t *testing.T) {
	contained := core.Config{ContainPanics: true}
	apps := []struct {
		name string
		run  func(seed int64) *core.Cluster
	}{
		{"randtree", func(seed int64) *core.Cluster {
			e := randtree.NewExperiment(randtree.ExperimentConfig{N: 15, Seed: seed, Setup: randtree.SetupChoiceCrystalBall, Runtime: contained})
			e.Eng.RunFor(8 * time.Second)
			return e.Cluster
		}},
		{"paxos", func(seed int64) *core.Cluster {
			e := paxos.NewExperiment(paxos.ExperimentConfig{Seed: seed, Policy: paxos.PolicyPredictive, Commands: 20, Runtime: contained})
			// A lost quorum leaves the submitted commands unlearned, so
			// their origins' resubmit timers fire and choose again.
			lost := []sm.NodeID{2, 3, 4}
			e.Eng.Schedule(500*time.Millisecond, func() {
				for _, id := range lost {
					e.Cluster.Crash(id)
				}
			})
			e.Eng.Schedule(5*time.Second, func() {
				for _, id := range lost {
					e.Cluster.Restart(id, e.Fresh(id))
				}
			})
			e.Eng.RunFor(12 * time.Second)
			return e.Cluster
		}},
		{"gossip", func(seed int64) *core.Cluster {
			e := gossip.NewExperiment(gossip.ExperimentConfig{N: 10, Seed: seed, Strategy: gossip.StrategyPredictive, Runtime: contained})
			for u := 0; u < 3; u++ {
				e.Eng.Schedule(time.Duration(u)*400*time.Millisecond, func() { gossip.PublishUpdate(e.Cluster, sm.NodeID(u), u) })
			}
			e.Eng.RunFor(6 * time.Second)
			return e.Cluster
		}},
		{"dissem", func(seed int64) *core.Cluster {
			e := dissem.NewExperiment(dissem.ExperimentConfig{N: 8, Blocks: 8, Seed: seed, Strategy: dissem.StrategyPredictive, Runtime: contained})
			e.Cluster.Engine().RunFor(10 * time.Second)
			return e.Cluster
		}},
		{"tracker", func(seed int64) *core.Cluster {
			// The tracker's policies own its resolver; the audit deploys
			// its swarm directly under Predictive.
			const peers = 6
			eng := sim.NewEngine(seed)
			cfg := contained
			cfg.NewResolver = func(*core.Node) core.Resolver { return core.NewPredictive(2) }
			cl := core.NewCluster(eng, transport.New(eng, netmodel.Uniform(peers+1, 5*time.Millisecond, 1<<20, 0)), cfg)
			tracker.Deploy(cl, peers, 8, 16<<10, 2)
			cl.Start()
			tracker.Enroll(cl, peers)
			eng.RunFor(10 * time.Second)
			return cl
		}},
	}
	for _, app := range apps {
		for _, seed := range []int64{1, 2} {
			cl := app.run(seed)
			st := cl.Stats()
			t.Logf("%s seed %d: %d choices, %d predictions, %d contained panics", app.name, seed, st.Choices, st.Predictions, len(cl.Panics()))
			if st.Choices == 0 || st.Predictions == 0 {
				t.Errorf("%s seed %d: %d choices, %d predictions: the audit exercised no choice site", app.name, seed, st.Choices, st.Predictions)
			}
			for _, p := range cl.Panics() {
				t.Errorf("%s seed %d: node %v panicked during %s at %v: %v", app.name, seed, p.Node, p.Event, p.At, p.Value)
			}
		}
	}
}
