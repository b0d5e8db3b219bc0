package randtree

import (
	"fmt"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// Setup is one of the three configurations of the Section-4 experiment.
type Setup string

// The three experiment setups from the paper.
const (
	SetupBaseline          Setup = "Baseline"
	SetupChoiceRandom      Setup = "Choice-Random"
	SetupChoiceCrystalBall Setup = "Choice-CrystalBall"
)

// Setups lists all three in the paper's order.
var Setups = []Setup{SetupBaseline, SetupChoiceRandom, SetupChoiceCrystalBall}

// ExperimentConfig parameterizes a tree experiment.
type ExperimentConfig struct {
	N     int
	Seed  int64
	Setup Setup
	// JoinSpacing staggers the initial joins (node i joins at i*spacing).
	JoinSpacing time.Duration
	// LookaheadDepth for the CrystalBall setup. Default 3.
	LookaheadDepth int
	// DisableCache turns off the predictive resolver's decision cache
	// (ablation A3).
	DisableCache bool
	// OffCriticalPath resolves choices from the cache/randomly and runs
	// consequence prediction in the background (ablation A6, paper §3.4).
	OffCriticalPath bool
	// Runtime is the cluster's runtime configuration — lookahead engine,
	// class cache, steering and its properties, panic containment, trace.
	// The setup owns NewResolver, ObjectiveFor and InitialState, which
	// NewExperiment sets; the CrystalBall setup checkpoints every 150 ms
	// unless Runtime.CheckpointInterval says otherwise.
	Runtime core.Config
}

func (c *ExperimentConfig) fill() {
	if c.N == 0 {
		c.N = 31
	}
	if c.JoinSpacing == 0 {
		c.JoinSpacing = 200 * time.Millisecond
	}
	if c.LookaheadDepth == 0 {
		c.LookaheadDepth = 3
	}
}

// Experiment is a running tree deployment.
type Experiment struct {
	Cfg     ExperimentConfig
	Eng     *sim.Engine
	Net     *transport.Network
	Cluster *core.Cluster
	// Fresh is a node's cold-restart state (Deploy's factory).
	Fresh func(sm.NodeID) sm.Service
}

// NewExperiment builds and starts a deployment of cfg.N nodes on an
// Internet-like topology, configured per the requested setup. It is the
// one deployment path: the Section-4 and steering runs, cmd/mc and the
// scenario lab (internal/scenario) all build through it.
func NewExperiment(cfg ExperimentConfig) *Experiment {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	top := netmodel.TransitStub(cfg.N, netmodel.DefaultInternetLike(), eng.Fork())
	net := transport.New(eng, top)

	ccfg := cfg.Runtime
	// Fault lookaheads restart reset nodes from the as-deployed cold state
	// when no fresh checkpoint is retained.
	ccfg.InitialState = func(id sm.NodeID) sm.Service { return newService(cfg.Setup, id, 0, 0) }
	switch cfg.Setup {
	case SetupBaseline:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.First{} }
	case SetupChoiceRandom:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case SetupChoiceCrystalBall:
		ccfg.NewResolver = func(*core.Node) core.Resolver {
			pr := core.NewPredictive(cfg.LookaheadDepth)
			pr.UseCache = !cfg.DisableCache
			pr.OffCriticalPath = cfg.OffCriticalPath
			return pr
		}
		ccfg.ObjectiveFor = func(*core.Node) explore.Objective { return BalanceObjective() }
		if ccfg.CheckpointInterval == 0 {
			ccfg.CheckpointInterval = 150 * time.Millisecond
		}
	default:
		panic(fmt.Sprintf("randtree: unknown setup %q", cfg.Setup))
	}

	cl := core.NewCluster(eng, net, ccfg)
	fresh := Deploy(cl, cfg.Setup, cfg.N, cfg.JoinSpacing)
	cl.Start()
	return &Experiment{Cfg: cfg, Eng: eng, Net: net, Cluster: cl, Fresh: fresh}
}

// Deploy populates cl with n tree nodes joining through the root at
// staggered delays and returns the cold-restart service factory (an
// immediate rejoin through the root). NewExperiment builds through it.
func Deploy(cl *core.Cluster, setup Setup, n int, joinSpacing time.Duration) func(sm.NodeID) sm.Service {
	for i := 0; i < n; i++ {
		cl.AddNode(sm.NodeID(i), newService(setup, sm.NodeID(i), 0, time.Duration(i)*joinSpacing))
	}
	return func(id sm.NodeID) sm.Service { return newService(setup, id, 0, 0) }
}

// Timers names the tree protocol timers, for marking pending when a
// scenario materializes the deployment as an explorable world.
func Timers() []string { return []string{timerHeartbeat, timerHBCheck, timerSummarize} }

// Properties returns the safety properties of the tree overlay — the
// paper's steering targets.
func Properties() []explore.Property {
	return []explore.Property{
		NoParentCycleProperty(),
		NoOrphanedChildProperty(),
		DegreeBoundProperty(),
	}
}

// newService constructs the right variant with a staggered join delay.
func newService(setup Setup, id, root sm.NodeID, joinDelay time.Duration) sm.Service {
	switch setup {
	case SetupBaseline:
		b := NewBaseline(id, root)
		b.JoinDelay = joinDelay
		return b
	default:
		c := NewChoice(id, root)
		c.JoinDelay = joinDelay
		return c
	}
}

// Run advances the deployment by d of virtual time.
func (e *Experiment) Run(d time.Duration) { e.Eng.RunFor(d) }

// view returns the TreeView of node id (live state).
func (e *Experiment) view(id sm.NodeID) TreeView {
	return e.Cluster.Node(id).Service().(TreeView)
}

// JoinedCount returns how many live nodes are in the tree.
func (e *Experiment) JoinedCount() int {
	n := 0
	for _, node := range e.Cluster.Nodes() {
		if node.Down() {
			continue
		}
		if tv, ok := node.Service().(TreeView); ok && tv.TreeJoined() {
			n++
		}
	}
	return n
}

// Depths returns the actual level of every joined live node, computed by
// walking parent pointers (root = level 1). Nodes whose parent chain is
// broken or cyclic are reported at -1.
func (e *Experiment) Depths() map[sm.NodeID]int {
	memo := make(map[sm.NodeID]int)
	var depth func(id sm.NodeID, visiting map[sm.NodeID]bool) int
	depth = func(id sm.NodeID, visiting map[sm.NodeID]bool) int {
		if d, ok := memo[id]; ok {
			return d
		}
		node := e.Cluster.Node(id)
		if node == nil || node.Down() {
			return -1
		}
		tv, ok := node.Service().(TreeView)
		if !ok || !tv.TreeJoined() {
			return -1
		}
		if id == 0 {
			memo[id] = 1
			return 1
		}
		p := tv.TreeParent()
		if p < 0 || visiting[id] {
			return -1
		}
		visiting[id] = true
		pd := depth(p, visiting)
		delete(visiting, id)
		d := -1
		if pd > 0 {
			d = pd + 1
		}
		memo[id] = d
		return d
	}
	out := make(map[sm.NodeID]int)
	for _, node := range e.Cluster.Nodes() {
		if node.Down() {
			continue
		}
		if tv, ok := node.Service().(TreeView); ok && tv.TreeJoined() {
			out[node.ID()] = depth(node.ID(), make(map[sm.NodeID]bool))
		}
	}
	return out
}

// MaxDepth returns the maximum level over all attached nodes (the paper's
// tree-balance metric), or 0 if the tree is empty.
func (e *Experiment) MaxDepth() int {
	max := 0
	for _, d := range e.Depths() {
		if d > max {
			max = d
		}
	}
	return max
}

// Descendants returns all live nodes in the subtree rooted at id
// (inclusive), by parent-pointer walks.
func (e *Experiment) Descendants(id sm.NodeID) []sm.NodeID {
	var out []sm.NodeID
	for _, node := range e.Cluster.Nodes() {
		if node.Down() {
			continue
		}
		cur := node.ID()
		for hops := 0; hops <= e.Cfg.N; hops++ {
			if cur == id {
				out = append(out, node.ID())
				break
			}
			tv, ok := e.Cluster.Node(cur).Service().(TreeView)
			if !ok || !tv.TreeJoined() || tv.TreeParent() < 0 || cur == 0 {
				break
			}
			cur = tv.TreeParent()
		}
	}
	return out
}

// FailLargestSubtree crashes the root child with the most descendants —
// the paper's "fail an entire subtree (about half of the nodes)" — and
// returns the failed node IDs.
func (e *Experiment) FailLargestSubtree() []sm.NodeID {
	root := e.view(0)
	var best sm.NodeID = -1
	bestSize := -1
	for i := 1; i < e.Cfg.N; i++ {
		id := sm.NodeID(i)
		if root.TreeHasChild(id) {
			if size := len(e.Descendants(id)); size > bestSize {
				best, bestSize = id, size
			}
		}
	}
	if best < 0 {
		return nil
	}
	failed := e.Descendants(best)
	for _, id := range failed {
		e.Cluster.Crash(id)
	}
	return failed
}

// RestartFailed revives the failed nodes with fresh state; they rejoin
// through the root in a burst (a quarter of the initial join spacing),
// which is the regime that separates placement strategies.
func (e *Experiment) RestartFailed(failed []sm.NodeID) {
	for i, id := range failed {
		delay := time.Duration(i) * e.Cfg.JoinSpacing / 4
		e.Cluster.Restart(id, newService(e.Cfg.Setup, id, 0, delay))
	}
}

// Section4Result is one row of the paper's Section-4 evaluation.
type Section4Result struct {
	Setup        Setup
	N            int
	JoinDepth    int // max depth after all N participants joined
	JoinedAfter  int // sanity: nodes attached at measurement
	RejoinDepth  int // max depth after subtree failure + rejoin
	RejoinJoined int
	Failed       int
	Stats        core.Stats
}

// RunSection4 runs the full Section-4 scenario on cfg's deployment: N
// nodes join, the largest root subtree fails, the failed nodes rejoin,
// and tree depth is measured at both points.
func RunSection4(cfg ExperimentConfig) Section4Result {
	e := NewExperiment(cfg)
	n := e.Cfg.N
	// Join phase: staggered joins plus settling time.
	e.Run(time.Duration(n)*e.Cfg.JoinSpacing + 10*time.Second)
	res := Section4Result{Setup: e.Cfg.Setup, N: n, JoinDepth: e.MaxDepth(), JoinedAfter: e.JoinedCount()}
	// Failure phase.
	failed := e.FailLargestSubtree()
	res.Failed = len(failed)
	e.Run(3 * time.Second) // let failure detection prune
	e.RestartFailed(failed)
	e.Run(time.Duration(len(failed))*e.Cfg.JoinSpacing + 15*time.Second)
	res.RejoinDepth = e.MaxDepth()
	res.RejoinJoined = e.JoinedCount()
	res.Stats = e.Cluster.Stats()
	return res
}
