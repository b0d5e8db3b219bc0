package gossip

import (
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// Strategy names the peer-selection policy under test (experiment E5).
type Strategy string

// The three strategies of the BAR Gossip discussion.
const (
	StrategyRandom     Strategy = "random"
	StrategyRestricted Strategy = "restricted"
	StrategyPredictive Strategy = "crystalball"
)

// Strategies lists all strategies in presentation order.
var Strategies = []Strategy{StrategyRandom, StrategyRestricted, StrategyPredictive}

// ExperimentConfig parameterizes a dissemination experiment.
type ExperimentConfig struct {
	N        int
	Seed     int64
	Strategy Strategy
	// SlowNodes degrades this many nodes' links (latency ×8, bandwidth ÷8)
	// to create the "target behind a slow network connection" setting.
	SlowNodes int
	// Updates is the number of updates published (at distinct nodes).
	Updates int
	// BaseLatency is the healthy inter-node latency.
	BaseLatency time.Duration
	// Exploration is the predictive resolver's ε (probability of a random
	// partner). Zero uses the default 0.3; negative disables exploration.
	Exploration float64
	// Dynamic perturbs the network during the run (latency jitter plus
	// occasional sharp per-pair degradations), exercising the paper's
	// "choosing how to adapt to a change in the underlying network":
	// the predictive resolver re-learns link quality from its passive
	// measurements while fixed strategies cannot react.
	Dynamic bool
	// Runtime is the cluster's runtime configuration — lookahead engine,
	// class cache, steering and its properties, panic containment, trace.
	// The strategy owns NewResolver and ObjectiveFor, which NewExperiment
	// sets; the predictive strategy checkpoints every 150 ms unless
	// Runtime.CheckpointInterval says otherwise.
	Runtime core.Config
}

func (c *ExperimentConfig) fill() {
	if c.N == 0 {
		c.N = 24
	}
	if c.Updates == 0 {
		c.Updates = 8
	}
	if c.BaseLatency == 0 {
		c.BaseLatency = 20 * time.Millisecond
	}
}

// Result summarizes one run.
type Result struct {
	Strategy Strategy
	// MeanDissemination is the average time from publish until every node
	// holds the update.
	MeanDissemination time.Duration
	// MaxDissemination is the worst update's full-coverage time.
	MaxDissemination time.Duration
	// Covered counts updates that reached every node before the deadline.
	Covered, Published int
	// FastMeanDissemination and FastMaxDissemination measure coverage of
	// the non-degraded population only — the BAR Gossip concern: rounds
	// spent on a slow partner are rounds not spreading among fast nodes.
	FastMeanDissemination time.Duration
	FastMaxDissemination  time.Duration
	FastCovered           int
}

// Deploy populates cl with n fully-meshed gossip peers and returns the
// cold-restart service factory for scripted resets. NewExperiment builds
// through it; the benchmark deploys its own topologies with it.
func Deploy(cl *core.Cluster, n int) func(sm.NodeID) sm.Service {
	var view []sm.NodeID
	for i := 0; i < n; i++ {
		view = append(view, sm.NodeID(i))
	}
	fresh := func(id sm.NodeID) sm.Service {
		v := make([]sm.NodeID, 0, n-1)
		for _, o := range view {
			if o != id {
				v = append(v, o)
			}
		}
		return New(id, v)
	}
	for i := 0; i < n; i++ {
		cl.AddNode(sm.NodeID(i), fresh(sm.NodeID(i)))
	}
	return fresh
}

// Timers names the gossip protocol timers, for marking pending when a
// scenario materializes the deployment as an explorable world.
func Timers() []string { return []string{timerRound} }

// PublishUpdate seeds update u at origin, as the experiment's staggered
// publisher does. A crashed origin drops the publish. It writes through
// add, like a handler: the receipt log may be shared with a checkpoint.
func PublishUpdate(cl *core.Cluster, origin sm.NodeID, u int) {
	node := cl.Node(origin)
	if node == nil || node.Down() {
		return
	}
	node.Service().(*Peer).add(time.Duration(cl.Engine().Now()), u)
}

// ReceiptProperty asserts gossip receipt consistency: every update a peer
// has logged a receipt time for is also in its held-update set. add
// maintains the two together, so a divergence means a corrupted exchange.
// It is the property scenario specs and the benchmark's gossip workload
// steer over and probe.
func ReceiptProperty() explore.Property {
	return explore.Property{
		Name: "g.receipt-held",
		Check: func(w *explore.World) bool {
			for _, id := range w.Nodes() {
				p, ok := w.Service(id).(*Peer)
				if !ok {
					continue
				}
				for u := range p.Received {
					if !p.has(u) {
						return false
					}
				}
			}
			return true
		},
	}
}

// Experiment is a running gossip deployment.
type Experiment struct {
	Cfg     ExperimentConfig
	Eng     *sim.Engine
	Cluster *core.Cluster
	// Fresh is a peer's cold-restart state (Deploy's factory).
	Fresh func(sm.NodeID) sm.Service
}

// NewExperiment builds and starts cfg.N peers on a uniform network, the
// highest SlowNodes IDs behind degraded links. Nothing is published yet:
// Run and the scenario lab (internal/scenario) build through it and each
// publishes on its own schedule.
func NewExperiment(cfg ExperimentConfig) *Experiment {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	top := netmodel.Uniform(cfg.N, cfg.BaseLatency, 1<<20, 0)
	for i := 0; i < cfg.SlowNodes; i++ {
		// Degrade the highest IDs so update publishing (low IDs) is fair.
		netmodel.SlowNode(top, sm.NodeID(cfg.N-1-i), 25, 8)
	}
	net := transport.New(eng, top)
	if cfg.Dynamic {
		dyn := netmodel.NewDynamics(top, cfg.Seed+7)
		dyn.LatencyJitter = 0.15
		dyn.FlapProb = 0.02
		dyn.DegradeFactor = 10
		dyn.Drive(func(d time.Duration, fn func()) { eng.Schedule(d, fn) }, 500*time.Millisecond)
	}

	ccfg := cfg.Runtime
	switch cfg.Strategy {
	case StrategyRandom:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case StrategyRestricted:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return &Restricted{} }
	case StrategyPredictive:
		// Depth 3 lets the lookahead see the pull half of the exchange
		// land (digest -> delta -> learn), which is where the spread
		// objective starts separating candidates.
		eps := cfg.Exploration
		if eps == 0 {
			eps = 0.3 // default: decorrelate partner choices across the fleet
		} else if eps < 0 {
			eps = 0
		}
		ccfg.NewResolver = func(*core.Node) core.Resolver {
			pr := core.NewPredictive(3)
			pr.Explore = eps
			return pr
		}
		ccfg.ObjectiveFor = SpreadObjective
		if ccfg.CheckpointInterval == 0 {
			ccfg.CheckpointInterval = 150 * time.Millisecond
		}
	default:
		panic("gossip: unknown strategy " + string(cfg.Strategy))
	}

	cl := core.NewCluster(eng, net, ccfg)
	fresh := Deploy(cl, cfg.N)
	cl.Start()
	return &Experiment{Cfg: cfg, Eng: eng, Cluster: cl, Fresh: fresh}
}

// Run executes the experiment: publish cfg.Updates updates at staggered
// times and measure how long each takes to reach all nodes.
func Run(cfg ExperimentConfig) Result {
	e := NewExperiment(cfg)
	cfg, eng, cl := e.Cfg, e.Eng, e.Cluster

	type pub struct {
		update int
		at     time.Duration
	}
	var pubs []pub
	for u := 0; u < cfg.Updates; u++ {
		at := time.Duration(u) * 400 * time.Millisecond
		origin := sm.NodeID(u % (cfg.N - cfg.SlowNodes))
		eng.Schedule(at, func() { PublishUpdate(cl, origin, u) })
		pubs = append(pubs, pub{update: u, at: at})
	}

	deadline := time.Duration(cfg.Updates)*400*time.Millisecond + 60*time.Second
	eng.RunFor(deadline)

	res := Result{Strategy: cfg.Strategy, Published: cfg.Updates}
	var total, fastTotal time.Duration
	fastN := cfg.N - cfg.SlowNodes
	for _, p := range pubs {
		var worst, fastWorst time.Duration = -1, -1
		all, fastAll := true, true
		for i := 0; i < cfg.N; i++ {
			peer := cl.Node(sm.NodeID(i)).Service().(*Peer)
			at, ok := peer.Received[p.update]
			if !ok {
				all = false
				if i < fastN {
					fastAll = false
				}
				continue
			}
			d := at - p.at
			if d > worst {
				worst = d
			}
			if i < fastN && d > fastWorst {
				fastWorst = d
			}
		}
		if all {
			res.Covered++
			total += worst
			if worst > res.MaxDissemination {
				res.MaxDissemination = worst
			}
		}
		if fastAll {
			res.FastCovered++
			fastTotal += fastWorst
			if fastWorst > res.FastMaxDissemination {
				res.FastMaxDissemination = fastWorst
			}
		}
	}
	if res.Covered > 0 {
		res.MeanDissemination = total / time.Duration(res.Covered)
	}
	if res.FastCovered > 0 {
		res.FastMeanDissemination = fastTotal / time.Duration(res.FastCovered)
	}
	return res
}
