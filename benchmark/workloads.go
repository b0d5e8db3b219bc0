package main

import (
	"math/rand"
	"time"

	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/failure"
	"crystalchoice/internal/iplane"
	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/transport"
)

// decisionSlot is the wall-clock delivery window every live workload
// holds an event to.
const decisionSlot = time.Millisecond

// nodes is the deployment size of every live workload.
const nodes = 5

// liveSpec describes one live workload: a deployment, an open-loop op
// stream on the virtual clock, and the runtime features switched on.
// Durations are virtual time. One rep replays the whole spec on a fresh
// deployment; a run repeats reps until its wall-clock budget is spent.
type liveSpec struct {
	name string
	// why says what the workload is for; BENCHMARK.json carries it.
	why string
	// app is "paxos" (SubmitCmd) or "gossip" (PublishUpdate).
	app string
	// rate is ops per virtual second; warmup traffic flows unrecorded,
	// measured is the recorded phase, drain lets in-flight ops complete.
	rate                    float64
	warmup, measured, drain time.Duration
	steering                bool
	predictive              bool
	classCache              bool
	checkpoints             time.Duration
	// faults scripts paxosFaults under the traffic.
	faults bool
	// cacheNominal is what the reference's contention probe takes between
	// this workload's events on the quiet reference container (see
	// hostspeed.go): the more the events evict, the longer.
	cacheNominal time.Duration
}

// liveSpecs sizes every workload so one rep costs between 0.7 and 2 wall
// seconds on the 2-vCPU reference container.
var liveSpecs = []liveSpec{
	{name: "paxos_steer", why: "Steering on, no cache: every delivery pays the cold decision pipeline twice (clone, BuildWorld, digest prime, Explore); O(delta) decisions and cheaper clone/digest must show here.",
		app: "paxos", rate: 25, warmup: time.Second, measured: 5 * time.Second, drain: 5 * time.Second,
		steering: true, checkpoints: 150 * time.Millisecond, cacheNominal: 48 * time.Microsecond},
	{name: "paxos_predict_class", why: "Predictive resolver with ~99% class-verdict hits: the explorer idles and the cost is checkpoint exchange and per-dispatch clones; explorer changes must not move it, clone/checkpoint changes must.",
		app: "paxos", rate: 25, warmup: time.Second, measured: 12 * time.Second, drain: 5 * time.Second,
		predictive: true, classCache: true, checkpoints: 150 * time.Millisecond, cacheNominal: 45 * time.Microsecond},
	{name: "gossip_predict", why: "The same resolver scoring an objective through the exact per-digest cache only, on small state and timer-driven choices; shows cache trade-offs and per-event overhead in sim, transport and checkpoint.",
		app: "gossip", rate: 2, warmup: time.Second, measured: 25 * time.Second, drain: 2 * time.Second,
		predictive: true, checkpoints: 150 * time.Millisecond, cacheNominal: 37 * time.Microsecond},
	{name: "paxos_faults", why: "Steering plus class-cached predictive resolver under crash, restart, checkpoint recovery and partition: writes beside reads for the caches (topology-epoch invalidation) and the recovery paths.",
		app: "paxos", rate: 25, warmup: time.Second, measured: 5 * time.Second, drain: 9 * time.Second,
		steering: true, predictive: true, classCache: true, checkpoints: 150 * time.Millisecond, faults: true, cacheNominal: 47 * time.Microsecond},
	{name: "paxos_baseline", why: "Control at 400 ops/s: steering off, random resolver, no checkpoints, so no clone, model, explorer or cache runs; isolates sim, transport, sm and app handlers; decision-path changes must not move it.",
		app: "paxos", rate: 400, warmup: time.Second, measured: 50 * time.Second, drain: 2 * time.Second, cacheNominal: 36 * time.Microsecond},
}

// fault is one scripted topology event of paxos_faults, at a fraction of
// the measured phase (so the script scales with the spec).
type fault struct {
	at   float64
	kind string
}

// paxosFaults keeps a quorum at every instant: node 4 crashes and warm
// restarts, node 3 is reset and recovers from the freshest checkpoint its
// neighbours hold, node 0 is partitioned away and healed. The reset comes
// before the partition so that it cannot wipe commands the partition is
// still delaying at their origin.
var paxosFaults = []fault{
	{0.15, "crash4"}, {0.35, "restart4"}, {0.45, "reset3"}, {0.55, "cut0"}, {0.75, "heal"},
}

// quiesce is how long before a planned crash or reset the client stops
// submitting at the node, so no command is in its origin's hands when the
// node loses its timers or state. It covers one commit round (6 one-way
// delays of 40ms).
const quiesce = 300 * time.Millisecond

// op is one generated client operation: the seq-th, issued at virtual
// time at, entering the system at origin.
type op struct {
	seq    int
	at     time.Duration
	origin sm.NodeID
}

// genOps fixes every op's issue time and origin up front from the
// workload seed: open loop on the virtual clock, so the generator is
// never late and a slow decision cannot shed load. Origins rotate
// randomly over the nodes that are in service at the issue time.
func genOps(s *liveSpec, seed int64) []op {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	inter := time.Duration(float64(time.Second) / s.rate)
	total := s.warmup + s.measured
	var out []op
	for seq := 0; time.Duration(seq)*inter < total; seq++ {
		at := time.Duration(seq) * inter
		origin := sm.NodeID(rng.Intn(nodes))
		for s.faults && !inService(s, origin, at) {
			origin = (origin + 1) % nodes
		}
		out = append(out, op{seq: seq, at: at, origin: origin})
	}
	return out
}

// faultAt returns the virtual time of the named scripted fault.
func faultAt(s *liveSpec, kind string) time.Duration {
	for _, f := range paxosFaults {
		if f.kind == kind {
			return s.warmup + time.Duration(f.at*float64(s.measured))
		}
	}
	panic("benchmark: unknown fault " + kind)
}

// inService reports whether a client would submit at node id at virtual
// time at: not while it is down, and not within quiesce of its planned
// crash or reset.
func inService(s *liveSpec, id sm.NodeID, at time.Duration) bool {
	switch id {
	case 4:
		return at < faultAt(s, "crash4")-quiesce || at >= faultAt(s, "restart4")
	case 3:
		r := faultAt(s, "reset3")
		return at < r-quiesce || at > r
	}
	return true
}

// deployment is one rep's live cluster and the handles the driver needs.
type deployment struct {
	spec   *liveSpec
	eng    *sim.Engine
	net    *transport.Network
	cl     *core.Cluster
	props  []explore.Property
	timers []string
	// submit enters one generated op into the system.
	submit func(o op)
	// acked holds the commit acknowledgements node 3 had logged when its
	// scripted reset rolled its state back (the client's own ack log).
	acked map[int]time.Duration
	// retried lists, per op, the nodes the client resubmitted it at.
	retried map[int][]sm.NodeID
	// probeEvent makes a synthetic instance of the workload's dominant
	// event pending in a probe world (traced reps only).
	probeEvent func(w *explore.World, self sm.NodeID, probe int)
}

// deploy builds the spec's cluster through the apps' own Deploy paths and
// schedules its fault script.
func deploy(s *liveSpec, seed int64) *deployment {
	eng := sim.NewEngine(seed)
	d := &deployment{spec: s, eng: eng}
	cfg := core.Config{
		ContainPanics:       true,
		DecisionSlot:        decisionSlot,
		LookaheadClassCache: s.classCache,
		CheckpointInterval:  s.checkpoints,
		Steering:            s.steering,
	}
	cfg.NewResolver = func(*core.Node) core.Resolver { return core.Random{} }
	var top *netmodel.Topology
	switch s.app {
	case "paxos":
		top = netmodel.Uniform(nodes, 40*time.Millisecond, 0, 0)
		d.props = []explore.Property{paxos.AgreementProperty()}
		d.timers = paxos.Timers()
		if s.predictive {
			plane := iplane.New(top, seed+1)
			plane.NoiseFrac = 0.05
			cfg.NewResolver = func(*core.Node) core.Resolver { return core.NewPredictive(2) }
			cfg.ObjectiveFor = paxos.LatencyObjective(plane, nodes)
		}
	case "gossip":
		top = netmodel.Uniform(nodes, 20*time.Millisecond, 1<<20, 0)
		d.props = []explore.Property{gossip.ReceiptProperty()}
		d.timers = gossip.Timers()
		if s.predictive {
			cfg.NewResolver = func(*core.Node) core.Resolver {
				pr := core.NewPredictive(3)
				pr.Explore = 0.3
				return pr
			}
			cfg.ObjectiveFor = gossip.SpreadObjective
		}
	default:
		panic("benchmark: unknown app " + s.app)
	}
	if s.steering {
		cfg.Properties = d.props
	}
	d.net = transport.New(eng, top)
	d.cl = core.NewCluster(eng, d.net, cfg)
	var fresh func(sm.NodeID) sm.Service
	switch s.app {
	case "paxos":
		fresh = paxos.Deploy(d.cl, nodes, 0)
		d.submit = func(o op) { paxos.SubmitCmd(d.cl, o.origin, o.seq) }
		d.probeEvent = func(w *explore.World, self sm.NodeID, probe int) {
			cmd := paxos.Cmd{ID: -1 - probe, Origin: self, SubmitAt: w.Now}
			w.InjectMessage(&sm.Msg{Src: self, Dst: self, Kind: paxos.KindSubmit, Body: paxos.Submit{Cmd: cmd}, Size: 48})
		}
	case "gossip":
		fresh = gossip.Deploy(d.cl, nodes)
		d.submit = func(o op) { gossip.PublishUpdate(d.cl, o.origin, o.seq) }
		d.probeEvent = func(w *explore.World, self sm.NodeID, _ int) {
			w.SetTimerPending(self, gossip.Timers()[0])
		}
	}
	d.cl.Start()
	if s.faults {
		var sched failure.Schedule
		sched.CrashAt(faultAt(s, "crash4"), 4)
		sched.RestartAt(faultAt(s, "restart4"), nil, 4)
		sched.PartitionAt(faultAt(s, "cut0"), []sm.NodeID{0}, []sm.NodeID{1, 2, 3, 4})
		sched.HealAt(faultAt(s, "heal"))
		// Scheduled before the script is installed, so at the reset
		// instant the ack log is saved first.
		eng.Schedule(faultAt(s, "reset3"), func() {
			d.acked = make(map[int]time.Duration)
			for id, at := range d.cl.Node(3).Service().(*paxos.Replica).DecidedAt {
				d.acked[id] = at
			}
		})
		sched.ResetAt(faultAt(s, "reset3"), func(id sm.NodeID) sm.Service {
			if st := d.cl.RecoveryState(id); st != nil {
				return st
			}
			return fresh(id)
		}, 3)
		sched.Install(d.cl)
	}
	return d
}

// clientTimeout is how long the paxos_faults client waits for an
// acknowledgement before it submits the command again at another node,
// and clientRetries how often it does so. A crash or reset cancels the
// origin's own resubmit timer, so without a client that fails over such a
// command would never commit. The timeout exceeds the replicas' own 3s
// resubmit so that retry gets its chance first.
const (
	clientTimeout = 3500 * time.Millisecond
	clientRetries = 2
)

// retryUnacked is the client's timeout for op o: if no node it submitted
// at has acknowledged the command, submit it at the next live node.
func (d *deployment) retryUnacked(o op, attempt int) {
	if _, ok := d.completion(o); ok {
		return
	}
	last := o.origin
	if r := d.retried[o.seq]; len(r) > 0 {
		last = r[len(r)-1]
	}
	next := (last + 1) % nodes
	for d.cl.Node(next).Down() {
		next = (next + 1) % nodes
	}
	if d.retried == nil {
		d.retried = make(map[int][]sm.NodeID)
	}
	d.retried[o.seq] = append(d.retried[o.seq], next)
	paxos.SubmitCmd(d.cl, next, o.seq)
	if attempt < clientRetries {
		d.eng.Schedule(clientTimeout, func() { d.retryUnacked(o, attempt+1) })
	}
}

// completion returns the virtual commit latency of op o, and whether it
// completed at all: for paxos the origin learned the decision, for gossip
// every live peer received the update (latency to the last one).
func (d *deployment) completion(o op) (time.Duration, bool) {
	switch d.spec.app {
	case "paxos":
		// The first acknowledgement at any node the client submitted at.
		var first time.Duration
		found := false
		for _, origin := range append([]sm.NodeID{o.origin}, d.retried[o.seq]...) {
			at, ok := d.cl.Node(origin).Service().(*paxos.Replica).DecidedAt[o.seq]
			if !ok && origin == 3 {
				at, ok = d.acked[o.seq]
			}
			if ok && (!found || at < first) {
				first, found = at, true
			}
		}
		return first - o.at, found
	default:
		var last time.Duration
		for _, n := range d.cl.Nodes() {
			if n.Down() {
				continue
			}
			at, ok := n.Service().(*gossip.Peer).Received[o.seq]
			if !ok {
				return 0, false
			}
			if at > last {
				last = at
			}
		}
		return last - o.at, true
	}
}
