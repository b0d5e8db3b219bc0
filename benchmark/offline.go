package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
)

// offlineSpec describes one offline model-checking workload: a randtree
// deployment run to a snapshot instant, materialised as a world, and
// explored breadth-first explorations times per rep with a fixed state
// budget. Only internal/explore works in the measured phase.
type offlineSpec struct {
	name         string
	why          string
	n            int
	snapshotAt   time.Duration
	depth        int
	workers      int
	maxStates    int
	explorations int
	// seqStates is the budget of the one-worker exploration a traced rep
	// adds, for the per-layer explore.*_w1 metrics.
	seqStates int
	// cacheNominal: see liveSpec.
	cacheNominal time.Duration
}

// offlineSpecs: the budget is sized so one exploration costs about 40 wall
// milliseconds on the reference container: an exploration cannot be
// interleaved with reference passes, so they go between explorations, and
// the host's speed changes within tenths of a second. The traced rep's
// one-worker exploration pins the recorded finding that on the same world
// the sequential FIFO scheduler is an order of magnitude slower per state
// than the stealing deques: it holds a true breadth-first frontier and
// reaches depth 3 where stealing reaches depth 10.
var offlineSpecs = []offlineSpec{
	{name: "mc_offline", why: "Offline BFS of a 31-node tree snapshot on 2 workers (stealing deques): only internal/explore works, so live-path changes predict no change and scheduler, seen-set and arena changes are judged here.",
		n: 31, snapshotAt: 5 * time.Second, depth: 10, workers: 2, maxStates: 10000, explorations: 40, seqStates: 8000, cacheNominal: 105 * time.Microsecond},
}

// explorer returns the spec's breadth-first explorer on workers workers
// with a budget of maxStates.
func (s *offlineSpec) explorer(workers, maxStates int) *explore.Explorer {
	x := explore.NewExplorer(s.depth)
	x.MaxStates = maxStates
	x.Workers = workers
	x.Strategy = explore.BFS{}
	x.Properties = randtree.Properties()
	return x
}

// prepare is an offline workload's set-up: take the snapshot, then run
// one exploration so the explorer's world pool and arenas are as full as
// a long-running checker's. It returns the wall seconds that took and the
// host's slowdown around it.
func (s *offlineSpec) prepare(seed int64, host *hostMeter) (*snapshot, float64, float64) {
	host.bracket()
	start := time.Now()
	snap := takeSnapshot(s.n, seed, s.snapshotAt, s.workers > 1)
	s.explorer(s.workers, s.maxStates).Explore(snap.world)
	el := time.Since(start).Seconds()
	runtime.GC() // or the collector runs beside the probes, on the other vCPU
	host.bracket()
	return snap, el, host.reading().slowdown(cacheNominalWarm)
}

// snapshot is a deployment frozen into an explorable world, with the
// virtual join latency of every node that had joined by then.
type snapshot struct {
	exp    *randtree.Experiment
	world  *explore.World
	joinMs []float64
	// due counts the nodes whose join started over a second before the
	// snapshot, unjoin those of them that had still not joined.
	due, unjoin int
}

// takeSnapshot deploys n tree nodes, steps the deployment to at while
// logging when each node joins, and materialises the global state.
func takeSnapshot(n int, seed int64, at time.Duration, locked bool) *snapshot {
	cfg := randtree.ExperimentConfig{N: n, Seed: seed, Setup: randtree.SetupChoiceRandom}
	e := randtree.NewExperiment(cfg)
	s := &snapshot{exp: e}
	const joinSpacing = 200 * time.Millisecond // ExperimentConfig's default
	pending := make([]sm.NodeID, 0, n)
	for i := 1; i < n; i++ { // node 0 is the root
		pending = append(pending, sm.NodeID(i))
	}
	for {
		next, ok := e.Eng.NextEventAt()
		if !ok || time.Duration(next) > at {
			break
		}
		e.Eng.Step()
		keep := pending[:0]
		for _, id := range pending {
			if e.Cluster.Node(id).Service().(randtree.TreeView).TreeJoined() {
				started := time.Duration(id) * joinSpacing
				s.joinMs = append(s.joinMs, float64(time.Duration(e.Eng.Now())-started)/1e6)
			} else {
				keep = append(keep, id)
			}
		}
		pending = keep
	}
	e.Eng.Run(sim.Time(at))
	for i := 1; i < n; i++ {
		if time.Duration(i)*joinSpacing+time.Second < at {
			s.due++
		}
	}
	for _, id := range pending {
		if time.Duration(id)*joinSpacing+time.Second < at {
			s.unjoin++
		}
	}
	sort.Float64s(s.joinMs)
	policy := explore.RandomPolicy(rand.New(rand.NewSource(seed + 2)))
	if locked {
		policy = explore.Locked(policy)
	}
	s.world = e.Cluster.MaterializeWorld(policy, seed, randtree.Timers())
	return s
}

// joinWorlds is how many deployments an offline rep pools join latencies
// over: one topology's latency draw moves the median join by a quarter.
const joinWorlds = 8

// joinDelays returns the median join latency, in units of the topology's
// mean one-way delay, pooled over joinWorlds deployments derived from seed.
func joinDelays(n int, seed int64, at time.Duration) float64 {
	var pooled []float64
	for k := int64(0); k < joinWorlds; k++ {
		s := takeSnapshot(n, seed*joinWorlds+k, at, false)
		delay := float64(s.exp.Net.Topology().MeanLatency()) / 1e6
		for _, ms := range s.joinMs {
			pooled = append(pooled, ms/delay)
		}
	}
	sort.Float64s(pooled)
	return median(pooled)
}

// findEdge returns an interior node and one of its children.
func (s *snapshot) findEdge() (victim, child sm.NodeID, ok bool) {
	for _, node := range s.exp.Cluster.Nodes() {
		tv := node.Service().(randtree.TreeView)
		if node.ID() == 0 || !tv.TreeJoined() {
			continue
		}
		for i := 1; i < s.exp.Cfg.N; i++ {
			if tv.TreeHasChild(sm.NodeID(i)) {
				return node.ID(), sm.NodeID(i), true
			}
		}
	}
	return 0, 0, false
}

// checkForgedCycle injects a stale JoinReply from a child into a fresh
// snapshot world and requires the checker to predict the parent cycle.
func checkForgedCycle(seed int64) error {
	s := takeSnapshot(15, seed, 5*time.Second, false)
	victim, child, ok := s.findEdge()
	if !ok {
		return fmt.Errorf("forged-cycle check: no interior node in the n=15 snapshot")
	}
	d := s.exp.Cluster.Node(child).Service().(randtree.TreeView).TreeDepth()
	s.world.InjectMessage(&sm.Msg{Src: child, Dst: victim, Kind: randtree.KindJoinReply,
		Body: randtree.JoinReply{Parent: child, Depth: d + 1}})
	x := explore.NewExplorer(6)
	x.MaxStates = 8192
	x.Properties = randtree.Properties()
	r := x.Explore(s.world)
	for _, c := range r.ViolationClasses() {
		if c.Property == "rt.no-parent-cycle" {
			return nil
		}
	}
	return fmt.Errorf("forged-cycle check: %d states explored, rt.no-parent-cycle not predicted", r.StatesExplored)
}

// faultClasses explores the n=15 snapshot with one fault per path and
// returns the digests of the violation classes found, ascending.
func faultClasses(seed int64) []uint64 {
	s := takeSnapshot(15, seed, 5*time.Second, false)
	x := explore.NewExplorer(8)
	x.MaxStates = 8192
	x.FaultBudget = 1
	x.Properties = randtree.Properties()
	var out []uint64
	for _, c := range x.Explore(s.world).ViolationClasses() {
		out = append(out, c.Digest)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runOffline replays spec once: snapshot (the set-up), then the timed
// explorations, one stopwatch sample each, then the check explorations.
// After each exploration one reference pass, outside the rep's meter.
func runOffline(spec *offlineSpec, seed int64, host *hostMeter, traced bool) (*rep, error) {
	// A sample is a whole exploration: a stall of milliseconds is lost in it.
	r := &rep{tailBeyond: 10}
	baseHeap := heapAfterGC()
	s, setupS, setupSlow := spec.prepare(seed, host)
	r.setupS, r.setupSlow = setupS, setupSlow
	runtime.GC()

	states := 0
	var tr *offlineTrace
	if traced {
		tr = newOfflineTrace()
		r.offTrace = tr
	}
	for i := 0; i < spec.explorations; i++ {
		var rp *explore.Report
		m := startMeter()
		t0 := time.Now()
		if tr == nil {
			rp = spec.explorer(spec.workers, spec.maxStates).Explore(s.world)
		} else {
			rp = tr.explore(i, spec.explorer(spec.workers, spec.maxStates), s.world)
		}
		el := time.Since(t0)
		m.stop(r)
		host.pass()
		if rp.StatesExplored == 0 {
			return nil, fmt.Errorf("%s: exploration %d visited no state", spec.name, i)
		}
		// Per-state cost, so that the parallel engine's budget overshoot
		// of a state or two does not read as a timing difference.
		r.eventsUs = append(r.eventsUs, float64(el)/1e3/float64(rp.StatesExplored))
		states += rp.StatesExplored
		if !rp.Safe() {
			return nil, fmt.Errorf("%s: exploration %d predicts %d violation(s) on a healthy snapshot", spec.name, i, len(rp.Violations))
		}
	}
	r.host = host.reading()
	r.slow = r.host.slowdown(spec.cacheNominal)
	r.dropStolen(spec.workers)
	r.states = states
	if h := heapAfterGC(); h > baseHeap {
		r.heapMB = float64(h-baseHeap) / (1 << 20)
	}

	if tr != nil {
		if err := tr.exploreSeq(spec.explorer(1, spec.seqStates), s.world); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
	}

	// Untimed gates.
	if err := checkForgedCycle(seed); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.name, err)
	}
	classes := faultClasses(seed)
	h := sm.NewHasher()
	for _, c := range classes {
		h.WriteUint(c)
	}
	r.exact.digest = s.world.DigestFull() ^ h.Sum()
	// Attempted: the timed explorations, the two check explorations and
	// the joins due by the snapshot. Failed: the joins that did not happen;
	// an exploration that fails its check fails the run.
	r.exact.ops = spec.explorations + 2 + s.due
	r.exact.events = spec.explorations
	r.exact.failed = s.unjoin
	r.exact.commitMeanVms = mean(s.joinMs)
	r.exact.commitP50Vms = median(s.joinMs)
	r.exact.commitP50Delays = joinDelays(spec.n, seed, spec.snapshotAt)
	r.exact.commitP99Vms = percentile(s.joinMs, 99)
	if tr != nil {
		tr.classes = len(classes)
	}
	return r, nil
}
