package paxos

import (
	"fmt"
	"sort"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/iplane"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/trace"
	"crystalchoice/internal/transport"
)

// Policy names the proposer-selection policy (experiment E7).
type Policy string

// The three proposer policies.
const (
	PolicyFixed      Policy = "fixed"      // classic single static leader (node 0)
	PolicyRoundRobin Policy = "roundrobin" // Mencius' rotation
	PolicyPredictive Policy = "crystalball"
)

// Policies lists all policies in presentation order.
var Policies = []Policy{PolicyFixed, PolicyRoundRobin, PolicyPredictive}

// ExperimentConfig parameterizes a WAN consensus run.
type ExperimentConfig struct {
	Sites    int // one replica per site
	Seed     int64
	Policy   Policy
	Commands int
	// Interarrival spaces command submissions.
	Interarrival time.Duration
	// InterSite overrides the inter-site latency matrix (Sites×Sites).
	// Nil uses a default asymmetric WAN in which node 0 — the classic
	// fixed leader — is the worst-placed replica.
	InterSite [][]time.Duration
	// UniformLatency, if positive, replaces the WAN with a uniform
	// topology — used by the CPU-overload variant, where the interesting
	// asymmetry is load rather than distance.
	UniformLatency time.Duration
	// WorkDelay models per-proposal CPU cost at the proposer (see
	// Replica.WorkDelay). Zero disables CPU modeling.
	WorkDelay time.Duration
	// Runtime is the cluster's runtime configuration — lookahead engine,
	// class cache, steering and its properties, panic containment, trace.
	// The policy owns NewResolver and ObjectiveFor, which NewExperiment
	// sets; the predictive policy checkpoints every 300 ms unless
	// Runtime.CheckpointInterval says otherwise.
	Runtime core.Config
}

func (c *ExperimentConfig) fill() {
	if c.Sites == 0 {
		c.Sites = 5
	}
	if c.Commands == 0 {
		c.Commands = 30
	}
	if c.Interarrival == 0 {
		c.Interarrival = 150 * time.Millisecond
	}
}

// DefaultWAN returns an asymmetric 5-site latency matrix: sites 1-3 form a
// well-connected core, site 4 is moderate, and site 0 is remote — so the
// "always node 0" fixed policy pays the worst quorum round trips.
func DefaultWAN() [][]time.Duration {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return [][]time.Duration{
		{0, ms(120), ms(130), ms(140), ms(110)},
		{ms(120), 0, ms(15), ms(20), ms(45)},
		{ms(130), ms(15), 0, ms(18), ms(50)},
		{ms(140), ms(20), ms(18), 0, ms(55)},
		{ms(110), ms(45), ms(50), ms(55), 0},
	}
}

// Result summarizes one run.
type Result struct {
	Policy Policy
	// MeanCommit and P99Commit aggregate per-command commit latency as
	// observed at the submitting node.
	MeanCommit, P99Commit, MaxCommit time.Duration
	Committed, Submitted             int
	// ProposerLoad counts proposals per node.
	ProposerLoad map[sm.NodeID]int
}

// LatencyObjective charges every open proposal the predicted time its
// proposer still needs: two quorum round trips, using iPlane predictions.
// Decided commands reward the score. This is the "let the runtime pick the
// best proposer" objective of paper §3.1.
func LatencyObjective(plane *iplane.Plane, sites int) func(n *core.Node) explore.Objective {
	quorum := sites/2 + 1
	// Precompute each node's quorum RTT from plane predictions.
	cost := make([]float64, sites)
	for p := 0; p < sites; p++ {
		var oneWay []float64
		for a := 0; a < sites; a++ {
			if a == p {
				oneWay = append(oneWay, 0)
				continue
			}
			oneWay = append(oneWay, plane.Query(sm.NodeID(p), sm.NodeID(a)).Latency.Seconds())
		}
		sort.Float64s(oneWay)
		// The proposer waits for the (quorum-1)-th fastest acceptor
		// besides itself; two phases, each a round trip.
		cost[p] = 4 * oneWay[quorum-1]
	}
	return func(n *core.Node) explore.Objective {
		return explore.ObjectiveFunc{ObjectiveName: "px.latency", Fn: func(w *explore.World) float64 {
			score := 0.0
			for _, id := range w.Nodes() {
				r, ok := w.Service(id).(*Replica)
				if !ok {
					continue
				}
				score += float64(r.decided.Len()) * 0.01
				// A proposer's open proposals serialize behind each other
				// (CPU and quorum round trips), so the k-th queued
				// proposal costs ~k units: charge the triangular sum.
				open := float64(r.OpenProposals())
				score -= cost[int(id)%len(cost)] * open * (open + 1) / 2
			}
			return score
		}}
	}
}

// Deploy populates cl with one replica per site and returns the
// cold-restart service factory for scripted resets. NewExperiment builds
// through it; the benchmark deploys its own topologies with it.
func Deploy(cl *core.Cluster, sites int, workDelay time.Duration) func(sm.NodeID) sm.Service {
	fresh := func(id sm.NodeID) sm.Service {
		rep := New(id, sites)
		rep.WorkDelay = workDelay
		return rep
	}
	for i := 0; i < sites; i++ {
		cl.AddNode(sm.NodeID(i), fresh(sm.NodeID(i)))
	}
	return fresh
}

// Timers returns nil: paxos timers are per-instance and dynamically named,
// so scenario worlds carry no static pending set.
func Timers() []string { return nil }

// SubmitCmd injects command c at origin, as the experiment's staggered
// submitter does. A crashed origin drops the submission.
func SubmitCmd(cl *core.Cluster, origin sm.NodeID, c int) {
	n := cl.Node(origin)
	if n == nil || n.Down() {
		return
	}
	cmd := Cmd{ID: c, Origin: origin, SubmitAt: time.Duration(cl.Engine().Now())}
	n.Inject(KindSubmit, Submit{Cmd: cmd}, 48)
}

// AgreementProperty asserts Paxos safety: no two replicas have decided
// different commands for the same consensus instance. Crashed replicas
// count — a decision is permanent, and a conflicting decided value on a
// down node is still a violation waiting to be observed.
//
// Check compares every replica's decided log against the replicas before
// it; Step (explore.Property) looks up only the instances the touched
// replica decided since prev — exactly the entries of its log that prev's
// lacks (sm.IntMap.Diff) — on the others. Neither allocates.
func AgreementProperty() explore.Property {
	return explore.Property{
		Name: "px.agreement",
		Check: func(w *explore.World) bool {
			nodes := w.Nodes()
			for i, id := range nodes {
				r, ok := w.Service(id).(*Replica)
				if !ok {
					continue
				}
				for inst, cmd := range r.decided.All {
					if !agrees(w, nodes[:i], inst, cmd) {
						return false
					}
				}
			}
			return true
		},
		Step: func(w *explore.World, id sm.NodeID, prev sm.Service) bool {
			r, ok := w.Service(id).(*Replica)
			if !ok {
				return true
			}
			var old *sm.IntMap[Cmd] // nil: prev is not a replica, every entry is new
			if p, ok := prev.(*Replica); ok {
				old = &p.decided
			}
			held := true
			r.decided.Diff(old, func(inst int, cmd Cmd) bool {
				held = agrees(w, w.Nodes(), inst, cmd)
				return held
			})
			return held
		},
	}
}

// agrees reports whether no replica among nodes has decided inst on a
// command other than cmd.
func agrees(w *explore.World, nodes []sm.NodeID, inst int, cmd Cmd) bool {
	for _, id := range nodes {
		if r, ok := w.Service(id).(*Replica); ok {
			if v, decided := r.decided.Get(inst); decided && v.ID != cmd.ID {
				return false
			}
		}
	}
	return true
}

// Experiment is a running consensus deployment.
type Experiment struct {
	Cfg     ExperimentConfig
	Eng     *sim.Engine
	Cluster *core.Cluster
	// Fresh is a replica's cold-restart state (Deploy's factory).
	Fresh func(sm.NodeID) sm.Service
}

// NewExperiment builds and starts one replica per site and schedules the
// client: cfg.Commands commands at random origins, cfg.Interarrival apart.
// Run and the scenario lab (internal/scenario) both build through it.
func NewExperiment(cfg ExperimentConfig) *Experiment {
	cfg.fill()
	eng := sim.NewEngine(cfg.Seed)
	var top *netmodel.Topology
	if cfg.UniformLatency > 0 {
		top = netmodel.Uniform(cfg.Sites, cfg.UniformLatency, 0, 0)
	} else {
		inter := cfg.InterSite
		if inter == nil {
			inter = DefaultWAN()
		}
		if len(inter) < cfg.Sites {
			panic(fmt.Sprintf("paxos: Sites = %d, but the inter-site latency matrix is %d×%d: set InterSite to a %d×%d matrix, or UniformLatency",
				cfg.Sites, len(inter), len(inter), cfg.Sites, cfg.Sites))
		}
		top = netmodel.WANClusters(cfg.Sites, 1, time.Millisecond, inter, 0)
	}
	net := transport.New(eng, top)

	ccfg := cfg.Runtime
	switch cfg.Policy {
	case PolicyFixed:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.First{} }
	case PolicyRoundRobin:
		ccfg.NewResolver = func(*core.Node) core.Resolver { return &core.RoundRobin{} }
	case PolicyPredictive:
		plane := iplane.New(top, cfg.Seed+1)
		plane.NoiseFrac = 0.05
		ccfg.NewResolver = func(*core.Node) core.Resolver { return core.NewPredictive(2) }
		ccfg.ObjectiveFor = LatencyObjective(plane, cfg.Sites)
		if ccfg.CheckpointInterval == 0 {
			ccfg.CheckpointInterval = 300 * time.Millisecond
		}
	default:
		panic("paxos: unknown policy " + string(cfg.Policy))
	}

	cl := core.NewCluster(eng, net, ccfg)
	fresh := Deploy(cl, cfg.Sites, cfg.WorkDelay)
	cl.Start()

	// Submit commands at rotating origins.
	rng := eng.Fork()
	for c := 0; c < cfg.Commands; c++ {
		origin := sm.NodeID(rng.Intn(cfg.Sites))
		eng.Schedule(time.Duration(c)*cfg.Interarrival, func() { SubmitCmd(cl, origin, c) })
	}
	return &Experiment{Cfg: cfg, Eng: eng, Cluster: cl, Fresh: fresh}
}

// Run executes one consensus experiment.
func Run(cfg ExperimentConfig) Result {
	e := NewExperiment(cfg)
	cfg, cl := e.Cfg, e.Cluster
	e.Eng.RunFor(time.Duration(cfg.Commands)*cfg.Interarrival + 30*time.Second)

	res := Result{Policy: cfg.Policy, Submitted: cfg.Commands, ProposerLoad: make(map[sm.NodeID]int)}
	var lat trace.Sample
	var maxLat time.Duration
	for i := 0; i < cfg.Sites; i++ {
		rep := cl.Node(sm.NodeID(i)).Service().(*Replica)
		res.ProposerLoad[sm.NodeID(i)] = rep.NextSlot
		for _, v := range rep.decided.All {
			if v.Origin != sm.NodeID(i) {
				continue
			}
			at, ok := rep.DecidedAt[v.ID]
			if !ok {
				continue
			}
			d := at - v.SubmitAt
			lat.ObserveDuration(d)
			if d > maxLat {
				maxLat = d
			}
		}
	}
	res.Committed = lat.N()
	res.MeanCommit = time.Duration(lat.Mean() * float64(time.Second))
	res.P99Commit = time.Duration(lat.Percentile(99) * float64(time.Second))
	res.MaxCommit = maxLat
	return res
}
