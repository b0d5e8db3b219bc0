// Ablation benchmarks for the design choices DESIGN.md calls out: how much
// lookahead depth, checkpoint freshness, decision caching, and exploration
// randomization each contribute to the CrystalBall resolver's results.
package crystalchoice

import (
	"fmt"
	"testing"
	"time"

	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/core"
)

// BenchmarkAblationLookaheadDepth sweeps the consequence-prediction chain
// depth on the Section-4 rejoin scenario. Depth 1 sees only the immediate
// effect of each candidate; the paper's benefit appears once chains reach
// the child's reaction (depth >= 2).
func BenchmarkAblationLookaheadDepth(b *testing.B) {
	for _, depth := range []int{1, 2, 3, 4} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				e := randtree.NewExperiment(randtree.ExperimentConfig{
					N: 31, Seed: int64(i + 1), Setup: randtree.SetupChoiceCrystalBall,
					LookaheadDepth: depth,
				})
				e.Run(31*200*time.Millisecond + 10*time.Second)
				failed := e.FailLargestSubtree()
				e.Run(3 * time.Second)
				e.RestartFailed(failed)
				e.Run(time.Duration(len(failed))*50*time.Millisecond + 15*time.Second)
				total += e.MaxDepth()
			}
			b.ReportMetric(float64(total)/float64(b.N), "rejoin-depth")
		})
	}
}

// BenchmarkAblationCheckpointInterval sweeps model freshness: staler
// checkpoints mean lookahead worlds diverge further from reality.
func BenchmarkAblationCheckpointInterval(b *testing.B) {
	for _, iv := range []time.Duration{50 * time.Millisecond, 150 * time.Millisecond, 600 * time.Millisecond} {
		iv := iv
		b.Run(iv.String(), func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				r := randtree.RunSection4(randtree.ExperimentConfig{
					N: 31, Seed: int64(i + 1), Setup: randtree.SetupChoiceCrystalBall,
					Runtime: core.Config{CheckpointInterval: iv},
				})
				total += r.RejoinDepth
			}
			b.ReportMetric(float64(total)/float64(b.N), "rejoin-depth")
		})
	}
}

// BenchmarkAblationDecisionCache measures what the decision cache buys:
// identical (choice, state, event) resolutions answered without re-running
// consequence prediction (paper §3.4: "choices based on previous similar
// scenarios as a fast alternative").
func BenchmarkAblationDecisionCache(b *testing.B) {
	for _, disable := range []bool{false, true} {
		disable := disable
		name := "cached"
		if disable {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			var states, hits float64
			for i := 0; i < b.N; i++ {
				e := randtree.NewExperiment(randtree.ExperimentConfig{
					N: 31, Seed: int64(i + 1), Setup: randtree.SetupChoiceCrystalBall,
					DisableCache: disable,
				})
				e.Run(31*200*time.Millisecond + 10*time.Second)
				s := e.Cluster.Stats()
				states += float64(s.LookaheadStates)
				hits += float64(s.CacheHits)
			}
			b.ReportMetric(states/float64(b.N), "lookahead-states")
			b.ReportMetric(hits/float64(b.N), "cache-hits")
		})
	}
}

// BenchmarkAblationExploration sweeps the resolver's ε on the gossip
// experiment: ε=0 couples the fleet onto the same predicted-best partner
// (the emergent behavior of paper §3.4), ε=1 degenerates to random.
func BenchmarkAblationExploration(b *testing.B) {
	for _, eps := range []float64{-1, 0.3, 1.0} {
		eps := eps
		name := fmt.Sprintf("eps%.1f", eps)
		if eps < 0 {
			name = "eps0.0"
		}
		b.Run(name, func(b *testing.B) {
			var tail time.Duration
			for i := 0; i < b.N; i++ {
				r := gossip.Run(gossip.ExperimentConfig{
					N: 16, Seed: int64(i + 1), Strategy: gossip.StrategyPredictive,
					SlowNodes: 4, Updates: 6, Exploration: eps,
				})
				tail += r.FastMaxDissemination
			}
			b.ReportMetric(float64(tail.Milliseconds())/float64(b.N), "fast-tail-ms")
		})
	}
}

// BenchmarkAblationCPUOverload is the second consensus failure mode of
// §3.1: proposer CPU load on a uniform network. The static leader
// saturates; rotation and the runtime choice stay fast.
func BenchmarkAblationCPUOverload(b *testing.B) {
	for _, p := range paxos.Policies {
		p := p
		b.Run(string(p), func(b *testing.B) {
			var mean time.Duration
			for i := 0; i < b.N; i++ {
				r := paxos.Run(paxos.ExperimentConfig{
					Seed: int64(i + 1), Policy: p,
					UniformLatency: 20 * time.Millisecond,
					WorkDelay:      60 * time.Millisecond,
					Interarrival:   40 * time.Millisecond,
					Commands:       30,
				})
				if r.Committed != r.Submitted {
					b.Fatalf("committed %d/%d", r.Committed, r.Submitted)
				}
				mean += r.MeanCommit
			}
			b.ReportMetric(float64(mean.Milliseconds())/float64(b.N), "mean-commit-ms")
		})
	}
}

// BenchmarkAblationDynamicNetwork runs gossip on a network that changes
// under the protocol's feet (jitter + sharp per-pair degradations) — the
// paper's "choice of how to adapt to a change in the underlying network".
// The predictive resolver tracks conditions through its passive
// measurements; the restricted schedule cannot react.
func BenchmarkAblationDynamicNetwork(b *testing.B) {
	for _, s := range gossip.Strategies {
		s := s
		b.Run(string(s), func(b *testing.B) {
			var tail time.Duration
			covered, published := 0, 0
			for i := 0; i < b.N; i++ {
				r := gossip.Run(gossip.ExperimentConfig{
					N: 16, Seed: int64(i + 1), Strategy: s,
					SlowNodes: 2, Updates: 6, Dynamic: true,
				})
				tail += r.FastMaxDissemination
				covered += r.Covered
				published += r.Published
			}
			b.ReportMetric(float64(tail.Milliseconds())/float64(b.N), "fast-tail-ms")
			b.ReportMetric(float64(covered)/float64(published), "coverage")
		})
	}
}

// BenchmarkAblationOffCriticalPath compares inline prediction (the handler
// blocks on consequence prediction) against the paper's §3.4 design where
// the handler answers from cached/fast decisions and predictions complete
// in the background. Decision quality (rejoin depth) may degrade slightly;
// the handler path stops paying lookahead cost.
func BenchmarkAblationOffCriticalPath(b *testing.B) {
	for _, async := range []bool{false, true} {
		async := async
		name := "inline"
		if async {
			name = "background"
		}
		b.Run(name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				r := randtree.RunSection4(randtree.ExperimentConfig{
					N: 31, Seed: int64(i + 1), Setup: randtree.SetupChoiceCrystalBall,
					OffCriticalPath: async,
				})
				total += r.RejoinDepth
			}
			b.ReportMetric(float64(total)/float64(b.N), "rejoin-depth")
		})
	}
}
