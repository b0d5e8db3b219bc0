// Benchmarks regenerating every quantitative result in the paper's
// evaluation (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for the measured-vs-paper comparison). Each benchmark reports the
// experiment's headline quantities via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced rows alongside the usual ns/op.
package crystalchoice

import (
	"math/rand"
	"testing"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/metrics"
	"crystalchoice/internal/sm"
)

// BenchmarkE1CodeMetrics regenerates the Section-4 code comparison:
// exposing choices shrank RandTree from 487 to 280 lines (-43%) and cut
// if-else per handler from 1.94 to 0.28. Reported metrics: handler code
// lines per variant, ifs-per-handler per variant.
func BenchmarkE1CodeMetrics(b *testing.B) {
	var cmp metrics.Comparison
	var err error
	for i := 0; i < b.N; i++ {
		cmp, err = metrics.Compare("internal/apps/randtree/baseline.go", "internal/apps/randtree/choice.go")
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cmp.Baseline.HandlerLines()), "baseline-handler-loc")
	b.ReportMetric(float64(cmp.Choice.HandlerLines()), "choice-handler-loc")
	b.ReportMetric(cmp.Baseline.IfsPerHandler(), "baseline-ifs/handler")
	b.ReportMetric(cmp.Choice.IfsPerHandler(), "choice-ifs/handler")
	b.ReportMetric(cmp.HandlerLoCReduction()*100, "loc-reduction-%")
}

// benchSection4 runs the join or join+failure scenario for one setup and
// reports the measured depth.
func benchSection4(b *testing.B, setup randtree.Setup, rejoin bool) {
	depth := 0
	seed := int64(1)
	for i := 0; i < b.N; i++ {
		r := randtree.RunSection4(randtree.ExperimentConfig{N: 31, Seed: seed, Setup: setup})
		seed++
		if rejoin {
			depth += r.RejoinDepth
		} else {
			depth += r.JoinDepth
		}
		if r.RejoinJoined != 31 {
			b.Fatalf("rejoined %d/31", r.RejoinJoined)
		}
	}
	b.ReportMetric(float64(depth)/float64(b.N), "max-depth")
}

// BenchmarkE2JoinDepth reproduces "after all 31 participants join the
// tree, the maximum depth is 6 in all cases (close to the optimal of 5)".
func BenchmarkE2JoinDepth(b *testing.B) {
	b.Run("Baseline", func(b *testing.B) { benchSection4(b, randtree.SetupBaseline, false) })
	b.Run("ChoiceRandom", func(b *testing.B) { benchSection4(b, randtree.SetupChoiceRandom, false) })
	b.Run("ChoiceCrystalBall", func(b *testing.B) { benchSection4(b, randtree.SetupChoiceCrystalBall, false) })
}

// BenchmarkE3FailureRejoin reproduces "we then fail an entire subtree ...
// Baseline and Choice-Random exhibit identical maximum depth (10), while
// the Choice-CrystalBall version is better with 9 levels".
func BenchmarkE3FailureRejoin(b *testing.B) {
	b.Run("Baseline", func(b *testing.B) { benchSection4(b, randtree.SetupBaseline, true) })
	b.Run("ChoiceRandom", func(b *testing.B) { benchSection4(b, randtree.SetupChoiceRandom, true) })
	b.Run("ChoiceCrystalBall", func(b *testing.B) { benchSection4(b, randtree.SetupChoiceCrystalBall, true) })
}

// BenchmarkE4ConsequencePrediction reproduces the claim that consequence
// prediction "is fast enough to look several levels of state space into
// the future fairly quickly": it explores RandTree worlds at increasing
// depth and reports states visited per second.
func BenchmarkE4ConsequencePrediction(b *testing.B) {
	mkWorld := mkTreeWorld
	for _, depth := range []int{2, 4, 6, 8} {
		depth := depth
		b.Run(time.Duration(depth).String()[:1]+"levels", func(b *testing.B) {
			b.ReportAllocs()
			states := 0
			for i := 0; i < b.N; i++ {
				x := explore.NewExplorer(depth)
				x.MaxStates = 4096
				r := x.Explore(mkWorld())
				states += r.StatesExplored
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
			b.ReportMetric(float64(depth), "depth")
		})
	}
}

// mkTreeWorld builds a fully joined 31-node tree with fresh joins queued
// at the root, so injected joins are forwarded down long causal chains —
// the regime consequence prediction is for (E4).
func mkTreeWorld() *explore.World {
	w := explore.NewWorld(explore.FirstPolicy, 1)
	svcs := make([]*randtree.Choice, 31)
	for i := 0; i < 31; i++ {
		svcs[i] = randtree.NewChoice(sm.NodeID(i), 0)
		w.AddNode(sm.NodeID(i), svcs[i])
	}
	// Wire a complete binary tree via the protocol's own handlers.
	env := &benchEnv{}
	for i := 0; i < 31; i++ {
		svcs[i].Init(env)
	}
	for i := 1; i < 31; i++ {
		parent := (i - 1) / 2
		svcs[parent].OnMessage(env, &sm.Msg{Src: sm.NodeID(i), Dst: sm.NodeID(parent),
			Kind: randtree.KindJoin, Body: randtree.Join{Joiner: sm.NodeID(i)}})
		svcs[i].OnMessage(env, &sm.Msg{Src: sm.NodeID(parent), Dst: sm.NodeID(i),
			Kind: randtree.KindJoinReply, Body: randtree.JoinReply{Parent: sm.NodeID(parent), Depth: depthOf(i) + 1}})
	}
	// Inject fresh joins at the (full) root: each must be routed down to
	// a leaf, a causal chain as long as the tree is deep.
	for j := 0; j < 8; j++ {
		w.InjectMessage(&sm.Msg{Src: sm.NodeID(100 + j), Dst: 0, Kind: randtree.KindJoin,
			Body: randtree.Join{Joiner: sm.NodeID(100 + j)}})
	}
	return w
}

// depthOf returns the level of index i in a complete binary tree rooted at
// 0 (root = 1).
func depthOf(i int) int {
	d := 1
	for i > 0 {
		i = (i - 1) / 2
		d++
	}
	return d
}

// benchEnv is a minimal Env for wiring bench worlds.
type benchEnv struct{}

func (benchEnv) ID() sm.NodeID                            { return 0 }
func (benchEnv) Now() time.Duration                       { return 0 }
func (benchEnv) Send(sm.NodeID, string, any, int)         {}
func (benchEnv) SendDatagram(sm.NodeID, string, any, int) {}
func (benchEnv) SetTimer(string, time.Duration)           {}
func (benchEnv) CancelTimer(string)                       {}
func (benchEnv) Rand() *rand.Rand                         { return benchRNG }
func (benchEnv) Choose(c sm.Choice) int                   { return 0 }
func (benchEnv) Logf(string, ...any)                      {}

var benchRNG = rand.New(rand.NewSource(1))

// BenchmarkE5GossipPeerChoice reproduces the BAR Gossip discussion: with
// slow nodes in the view, restricted peer choice stalls worst-case rounds
// while the predictive choice keeps the fast population's tail short.
// Reported metric: fast-population max dissemination (ms).
func BenchmarkE5GossipPeerChoice(b *testing.B) {
	for _, s := range gossip.Strategies {
		s := s
		b.Run(string(s), func(b *testing.B) {
			var tail time.Duration
			for i := 0; i < b.N; i++ {
				r := gossip.Run(gossip.ExperimentConfig{
					N: 16, Seed: int64(i + 1), Strategy: s, SlowNodes: 4, Updates: 6,
				})
				if r.Covered != r.Published {
					b.Fatalf("coverage %d/%d", r.Covered, r.Published)
				}
				tail += r.FastMaxDissemination
			}
			b.ReportMetric(float64(tail.Milliseconds())/float64(b.N), "fast-tail-ms")
		})
	}
}

// BenchmarkE6BlockSelection reproduces the BulletPrime/BitTorrent
// discussion: random vs rarest-random block choice across two deployment
// settings, with the predictive resolver tracking the better strategy in
// each. Reported metric: mean completion (ms).
func BenchmarkE6BlockSelection(b *testing.B) {
	settings := append(append([]dissem.Setting{}, dissem.Settings...), dissem.SettingSharedSeedUplink)
	for _, set := range settings {
		for _, s := range dissem.Strategies {
			set, s := set, s
			b.Run(string(set)+"/"+string(s), func(b *testing.B) {
				var mean time.Duration
				for i := 0; i < b.N; i++ {
					r := dissem.Run(dissem.ExperimentConfig{
						N: 10, Blocks: 16, Seed: int64(i + 1), Strategy: s, Setting: set,
					})
					if r.Completed != r.Peers {
						b.Fatalf("completed %d/%d", r.Completed, r.Peers)
					}
					mean += r.MeanCompletion
				}
				b.ReportMetric(float64(mean.Milliseconds())/float64(b.N), "mean-completion-ms")
			})
		}
	}
}

// BenchmarkE7ProposerChoice reproduces the Paxos/Mencius discussion: on a
// WAN with a poorly placed static leader, rotating proposers improves
// commit latency and the runtime-chosen proposer improves it further.
// Reported metric: mean commit latency (ms).
func BenchmarkE7ProposerChoice(b *testing.B) {
	for _, p := range paxos.Policies {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				r := paxos.Run(paxos.ExperimentConfig{Seed: int64(i + 1), Policy: p})
				if r.Committed != r.Submitted {
					b.Fatalf("committed %d/%d", r.Committed, r.Submitted)
				}
				mean += r.MeanCommit
			}
			b.ReportMetric(float64(mean.Milliseconds())/float64(b.N), "mean-commit-ms")
		})
	}
}

// BenchmarkE8ExecutionSteering reproduces CrystalBall's execution
// steering: a forged message that would create a parent cycle is predicted
// and dropped. Reported metrics: messages steered (want 1 with steering
// on, 0 off) and whether the inconsistency materialized (want 0 on, 1 off).
func BenchmarkE8ExecutionSteering(b *testing.B) {
	for _, on := range []bool{false, true} {
		on := on
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			steered, cycles := 0.0, 0.0
			for i := 0; i < b.N; i++ {
				r := randtree.RunSteering(randtree.ExperimentConfig{N: 15, Seed: int64(i + 1), Runtime: core.Config{Steering: on}})
				steered += float64(r.Steered)
				if r.CycleFormed {
					cycles++
				}
			}
			b.ReportMetric(steered/float64(b.N), "steered")
			b.ReportMetric(cycles/float64(b.N), "cycle-formed")
		})
	}
}

// BenchmarkE9TrackerPeerChoice reproduces the P4P example of §3.1: the
// tracker's peer choice, once exposed, is trivially biased toward the
// requester's ISP, cutting cross-ISP traffic without hurting completion.
// Reported metrics: cross-ISP byte fraction (%) and mean completion (ms).
func BenchmarkE9TrackerPeerChoice(b *testing.B) {
	for _, p := range tracker.Policies {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var frac float64
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				r := tracker.Run(tracker.ExperimentConfig{Seed: int64(i + 1), Policy: p})
				if r.Completed != r.Peers {
					b.Fatalf("completed %d/%d", r.Completed, r.Peers)
				}
				frac += r.CrossFraction()
				mean += r.MeanCompletion
			}
			b.ReportMetric(frac/float64(b.N)*100, "cross-isp-%")
			b.ReportMetric(float64(mean.Milliseconds())/float64(b.N), "mean-completion-ms")
		})
	}
}
