package tracker

import (
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// Policy names the tracker's grant policy (experiment E9).
type Policy string

// The two tracker policies of the P4P discussion.
const (
	PolicyRandom   Policy = "random"
	PolicyLocality Policy = "locality"
)

// Policies lists both policies.
var Policies = []Policy{PolicyRandom, PolicyLocality}

// ExperimentConfig parameterizes a tracker-mediated swarm download across
// two ISPs joined by a dumbbell bottleneck.
type ExperimentConfig struct {
	// Peers is the swarm size (the tracker is an additional node).
	Peers     int
	Blocks    int
	BlockSize int
	Seed      int64
	Policy    Policy
	// GrantK is how many introductions the tracker returns per request.
	GrantK int
	// Runtime is the cluster's runtime configuration — lookahead engine,
	// class cache, steering and its properties, panic containment, trace.
	// The policy owns NewResolver, which NewExperiment sets.
	Runtime core.Config
}

func (c *ExperimentConfig) fill() {
	if c.Peers == 0 {
		c.Peers = 12
	}
	if c.Blocks == 0 {
		c.Blocks = 16
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64 << 10
	}
	if c.GrantK == 0 {
		c.GrantK = 4
	}
}

// isp maps a node to its side of the dumbbell: the lower half of the
// Peers+1 nodes is ISP 0.
func (c *ExperimentConfig) isp(id sm.NodeID) int {
	if int(id) < (c.Peers+2)/2 {
		return 0
	}
	return 1
}

// Result summarizes one run.
type Result struct {
	Policy Policy
	// CrossISPBytes and TotalBytes account all delivered traffic; their
	// ratio is the ISP-cost metric P4P reduces.
	CrossISPBytes, TotalBytes uint64
	MeanCompletion            time.Duration
	Completed, Peers          int
}

// CrossFraction returns cross-ISP bytes over total bytes.
func (r Result) CrossFraction() float64 {
	if r.TotalBytes == 0 {
		return 0
	}
	return float64(r.CrossISPBytes) / float64(r.TotalBytes)
}

// Deploy populates cl with a tracker-mediated swarm: peers nodes of
// dissem (node 0 the seed, discovering partners only through the tracker)
// plus the tracker itself at NodeID(peers). It returns the cold-restart
// service factory for scripted resets. NewExperiment builds through it.
func Deploy(cl *core.Cluster, peers, blocks, blockSize, grantK int) func(sm.NodeID) sm.Service {
	trackerID := sm.NodeID(peers)
	fresh := func(id sm.NodeID) sm.Service {
		if id == trackerID {
			return New(trackerID)
		}
		p := dissem.New(id, nil, blocks, blockSize, id == 0)
		p.RequestPeers = func(env sm.Env) {
			env.Send(trackerID, KindGetPeers, GetPeers{K: grantK}, 16)
		}
		return p
	}
	for i := 0; i <= peers; i++ {
		cl.AddNode(sm.NodeID(i), fresh(sm.NodeID(i)))
	}
	return fresh
}

// Timers names the protocol timers of the swarm's peers (the tracker
// itself is purely reactive).
func Timers() []string { return dissem.Timers() }

// Enroll registers every live peer with the tracker, as NewExperiment does
// at start.
func Enroll(cl *core.Cluster, peers int) {
	trackerID := sm.NodeID(peers)
	for i := 0; i < peers; i++ {
		if n := cl.Node(sm.NodeID(i)); n != nil && !n.Down() {
			n.SendApp(trackerID, KindRegister, Register{}, 16)
		}
	}
}

// RegistryProperty asserts tracker registry sanity: the registry holds
// only swarm peers — never the tracker itself and never an ID outside the
// deployment. It is the property scenario specs steer over and probe.
func RegistryProperty(peers int) explore.Property {
	trackerID := sm.NodeID(peers)
	return explore.Property{
		Name: "tr.registry-sane",
		Check: func(w *explore.World) bool {
			for _, id := range w.Nodes() {
				t, ok := w.Service(id).(*Tracker)
				if !ok {
					continue
				}
				for r := range t.Registered {
					if r == trackerID || int(r) < 0 || int(r) >= peers {
						return false
					}
				}
			}
			return true
		},
	}
}

// Experiment is a running tracker-mediated swarm.
type Experiment struct {
	Cfg     ExperimentConfig
	Eng     *sim.Engine
	Cluster *core.Cluster
	// Fresh is a node's cold-restart state (Deploy's factory).
	Fresh func(sm.NodeID) sm.Service
}

// NewExperiment builds and starts the swarm on two ISPs joined by a
// bottleneck and enrolls every peer with the tracker. Run and the scenario
// lab (internal/scenario) both build through it.
func NewExperiment(cfg ExperimentConfig) *Experiment {
	cfg.fill()
	total := cfg.Peers + 1 // + tracker
	trackerID := sm.NodeID(cfg.Peers)
	eng := sim.NewEngine(cfg.Seed)
	// Two ISPs joined by a bottleneck; the tracker sits in ISP 1 but its
	// traffic is negligible.
	top := netmodel.Dumbbell(total, 5*time.Millisecond, 40*time.Millisecond, 4<<20, 1<<20)
	net := transport.New(eng, top)

	ccfg := cfg.Runtime
	switch cfg.Policy {
	case PolicyRandom:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	case PolicyLocality:
		ccfg.NewResolver = func(n *core.Node) core.Resolver {
			if n.ID() == trackerID {
				return Locality{ISP: cfg.isp}
			}
			return core.Random{} // block selection stays random for both
		}
	default:
		panic("tracker: unknown policy " + string(cfg.Policy))
	}

	cl := core.NewCluster(eng, net, ccfg)
	fresh := Deploy(cl, cfg.Peers, cfg.Blocks, cfg.BlockSize, cfg.GrantK)
	cl.Start()
	// Registration: every peer enrolls at start.
	Enroll(cl, cfg.Peers)
	return &Experiment{Cfg: cfg, Eng: eng, Cluster: cl, Fresh: fresh}
}

// Run executes the experiment: peers discover each other only through the
// tracker, download a file seeded in ISP 0, and the harness accounts
// cross-ISP traffic.
func Run(cfg ExperimentConfig) Result {
	e := NewExperiment(cfg)
	res := Result{Policy: e.Cfg.Policy, Peers: e.Cfg.Peers - 1}
	e.Cluster.Network().Monitor = func(m *transport.Message) {
		res.TotalBytes += uint64(m.Size)
		if e.Cfg.isp(m.Src) != e.Cfg.isp(m.Dst) {
			res.CrossISPBytes += uint64(m.Size)
		}
	}
	res.Completed, res.MeanCompletion, _ = dissem.RunToCompletion(e.Cluster, e.Cfg.Peers)
	return res
}
