package dissem

import (
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// Strategy names the block-selection policy under test (experiment E6).
type Strategy string

// The strategies of the BulletPrime/BitTorrent discussion.
const (
	StrategyRandom     Strategy = "random"
	StrategyRarest     Strategy = "rarest"
	StrategyPredictive Strategy = "crystalball"
)

// Strategies lists all strategies in presentation order.
var Strategies = []Strategy{StrategyRandom, StrategyRarest, StrategyPredictive}

// Setting is the deployment environment of the run.
type Setting string

// The two settings whose crossover E6 demonstrates, plus a third that
// models the seed's constraint as one shared uplink (all destinations
// serialize through it) rather than per-pair caps.
const (
	SettingHomogeneous      Setting = "homogeneous"
	SettingBottleneckSeed   Setting = "bottleneck-seed"
	SettingSharedSeedUplink Setting = "shared-seed-uplink"
)

// Settings lists the two paper-profile settings (the E6 loops iterate
// these); SettingSharedSeedUplink is exercised separately.
var Settings = []Setting{SettingHomogeneous, SettingBottleneckSeed}

// ExperimentConfig parameterizes a download run.
type ExperimentConfig struct {
	N         int // peers including the seed (node 0)
	Blocks    int
	BlockSize int
	Seed      int64
	Strategy  Strategy
	Setting   Setting
	// Latency is the uniform inter-peer latency.
	Latency time.Duration
	// Bandwidth is the per-pair bandwidth in bytes/sec.
	Bandwidth float64
	// SeedBandwidth caps the seed's upload per pair in the
	// bottleneck-seed setting.
	SeedBandwidth float64
	// Runtime is the cluster's runtime configuration — lookahead engine,
	// class cache, panic containment, trace. The strategy owns NewResolver
	// and ObjectiveFor, which NewExperiment sets; the predictive strategy
	// checkpoints every 150 ms unless Runtime.CheckpointInterval says
	// otherwise.
	Runtime core.Config
}

func (c *ExperimentConfig) fill() {
	if c.N == 0 {
		c.N = 12
	}
	if c.Blocks == 0 {
		c.Blocks = 24
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 10
	}
	if c.Latency == 0 {
		c.Latency = 15 * time.Millisecond
	}
	if c.Bandwidth == 0 {
		c.Bandwidth = 1 << 20
	}
	if c.SeedBandwidth == 0 {
		c.SeedBandwidth = 96 << 10
	}
	if c.Setting == "" {
		c.Setting = SettingHomogeneous
	}
}

// Result summarizes one run.
type Result struct {
	Strategy Strategy
	Setting  Setting
	// MeanCompletion and MaxCompletion aggregate per-peer download times.
	MeanCompletion, MaxCompletion time.Duration
	Completed, Peers              int
}

// Deploy populates cl with an n-peer swarm (node 0 the seed) and returns
// the cold-restart service factory for scripted resets. NewExperiment
// builds through it.
func Deploy(cl *core.Cluster, n, blocks, blockSize int) func(sm.NodeID) sm.Service {
	var all []sm.NodeID
	for i := 0; i < n; i++ {
		all = append(all, sm.NodeID(i))
	}
	fresh := func(id sm.NodeID) sm.Service {
		swarm := make([]sm.NodeID, 0, n-1)
		for _, o := range all {
			if o != id {
				swarm = append(swarm, o)
			}
		}
		return New(id, swarm, blocks, blockSize, id == 0)
	}
	for i := 0; i < n; i++ {
		cl.AddNode(sm.NodeID(i), fresh(sm.NodeID(i)))
	}
	return fresh
}

// Timers names the dissem protocol timers, for marking pending when a
// scenario materializes the deployment as an explorable world.
func Timers() []string { return []string{timerTick} }

// Experiment is a running swarm.
type Experiment struct {
	Cfg     ExperimentConfig
	Eng     *sim.Engine
	Cluster *core.Cluster
	// Fresh is a peer's cold-restart state (Deploy's factory).
	Fresh func(sm.NodeID) sm.Service
}

// NewExperiment builds and starts the swarm in cfg's setting; the seed's
// tick timer drives the download from there. Run and the scenario lab
// (internal/scenario) both build through it.
func NewExperiment(cfg ExperimentConfig) *Experiment {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	top := netmodel.Uniform(cfg.N, cfg.Latency, cfg.Bandwidth, 0)
	if cfg.Setting == SettingBottleneckSeed {
		netmodel.BottleneckUpload(top, 0, cfg.SeedBandwidth)
	}
	net := transport.New(eng, top)
	if cfg.Setting == SettingSharedSeedUplink {
		// One uplink shared by all of the seed's transfers: concurrent
		// leechers queue behind each other instead of each getting a
		// capped private pipe.
		net.SetUploadCapacity(0, 4*cfg.SeedBandwidth)
	}

	ccfg := cfg.Runtime
	switch cfg.Strategy {
	case StrategyRandom:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case StrategyRarest:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return Rarest{} }
	case StrategyPredictive:
		ccfg.NewResolver = func(*core.Node) core.Resolver {
			pr := core.NewPredictive(3)
			pr.Explore = 0.25
			return pr
		}
		ccfg.ObjectiveFor = AvailabilityObjective
		if ccfg.CheckpointInterval == 0 {
			ccfg.CheckpointInterval = 150 * time.Millisecond
		}
	default:
		panic("dissem: unknown strategy " + string(cfg.Strategy))
	}

	cl := core.NewCluster(eng, net, ccfg)
	fresh := Deploy(cl, cfg.N, cfg.Blocks, cfg.BlockSize)
	cl.Start()
	return &Experiment{Cfg: cfg, Eng: eng, Cluster: cl, Fresh: fresh}
}

// Run executes one download experiment.
func Run(cfg ExperimentConfig) Result {
	e := NewExperiment(cfg)
	res := Result{Strategy: e.Cfg.Strategy, Setting: e.Cfg.Setting, Peers: e.Cfg.N - 1}
	res.Completed, res.MeanCompletion, res.MaxCompletion = RunToCompletion(e.Cluster, e.Cfg.N)
	return res
}

// RunToCompletion advances cl in 500 ms steps until every leecher — nodes
// 1 … peers-1, each a *Peer — holds the whole file, or ten virtual minutes
// pass, and returns how many completed and the mean and maximum of their
// completion times. The tracker's swarm runs through it too.
func RunToCompletion(cl *core.Cluster, peers int) (completed int, mean, worst time.Duration) {
	leecher := func(i int) *Peer { return cl.Node(sm.NodeID(i)).Service().(*Peer) }
	const step = 500 * time.Millisecond
	for elapsed := time.Duration(0); elapsed < 10*time.Minute; elapsed += step {
		cl.Engine().RunFor(step)
		done := true
		for i := 1; i < peers && done; i++ {
			done = leecher(i).Complete()
		}
		if done {
			break
		}
	}
	var total time.Duration
	for i := 1; i < peers; i++ {
		if p := leecher(i); p.Complete() {
			completed++
			total += p.CompletedAt
			worst = max(worst, p.CompletedAt)
		}
	}
	if completed > 0 {
		mean = total / time.Duration(completed)
	}
	return completed, mean, worst
}
