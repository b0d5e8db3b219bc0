package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"crystalchoice/internal/checkpoint"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/model"
	"crystalchoice/internal/sim"
	"crystalchoice/internal/sm"
	"crystalchoice/internal/trace"
	"crystalchoice/internal/transport"
)

// NodeID aliases sm.NodeID.
type NodeID = sm.NodeID

// Config parameterizes a cluster of CrystalBall-enabled runtime nodes.
type Config struct {
	// NewResolver constructs the choice resolver for each node. Defaults
	// to Random (the paper's Choice-Random setup).
	NewResolver func(n *Node) Resolver
	// ObjectiveFor supplies the objective a node's resolver maximizes
	// (paper §3.2). May be nil. The closure may capture the node to
	// consult its predictive model (e.g. network estimates).
	ObjectiveFor func(n *Node) explore.Objective
	// Properties are safety properties checked during every lookahead and
	// used by execution steering.
	Properties []explore.Property
	// CheckpointInterval is the period of neighborhood checkpoint
	// exchange. Zero disables checkpointing (and thus prediction quality
	// degrades to self-state-only worlds).
	CheckpointInterval time.Duration
	// Steering enables execution steering: inbound messages whose
	// delivery is predicted to violate a property are dropped and the
	// connection to the sender broken, when doing so is predicted safe.
	Steering bool
	// FaultBudget bounds the fault transitions (crash, recover, reset,
	// and with PartitionFaults isolate/heal) per path of a predictive
	// resolution's lookahead, so consequence prediction can explore node
	// failures and recoveries alongside message deliveries (paper §2: the
	// randtree inconsistency surfaces only when resets are explored).
	// PartitionFaults adds the partition transitions, drawn from the same
	// budget. Both apply to choice resolution only: steering lookaheads
	// always run fault-free, because steering attributes violations to the
	// inspected message and fault-only violations would taint the with-
	// and without-message futures equally.
	FaultBudget     int
	PartitionFaults bool
	// LookaheadClassCache keys predictive resolution verdicts by scenario
	// in addition to the per-digest decision cache: the resolver
	// remembers the decisive winner per (choice, arity, event-kind)
	// scenario, so unique per-command state digests stop defeating the
	// cache (the paper's "choices based on previous similar scenarios").
	// Verdicts are invalidated wholesale on every topology event — crash,
	// restart, partition, heal — via the cluster's topology epoch. Off by
	// default: scenario verdicts are an approximation (they ignore the
	// exact state), so existing configurations keep exact per-digest
	// behavior. Steering is unaffected: every steering check runs both
	// its lookaheads.
	LookaheadClassCache bool
	// InitialState, when set, supplies a node's cold-restart state for
	// fault lookaheads: exploring a reset restores this state when no
	// fresh-enough checkpoint is retained. Nil limits recovery to
	// checkpointed (or pre-crash) state.
	InitialState func(id NodeID) sm.Service
	// DecisionSlot is the wall-clock delivery window an interposition
	// decision (a steering check, or a synchronous choice resolution) is
	// expected to land within. Decisions that overrun it still take
	// effect — the simulator's virtual clock does not advance while they
	// compute — but are counted in Stats.DroppedWindows, since in a real
	// deployment the same overrun would mean the message had to be
	// delivered (or the choice defaulted) before the prediction finished.
	// Zero disables the accounting.
	DecisionSlot time.Duration
	// ContainPanics converts a panicking service handler into a recorded
	// PanicRecord plus a crash of the offending node — what a supervisor
	// does to a wedged process — instead of unwinding through the engine
	// and killing the whole run. Off by default so engine bugs in tests
	// still fail loudly; the scenario runner turns it on.
	ContainPanics bool
	// Trace receives structured log entries (nil = discard).
	Trace *trace.Log
}

const (
	// steeringDepth and steeringMaxStates bound the per-message steering
	// prediction; predictMaxStates bounds the handler executions of one
	// candidate evaluation in predictive resolution.
	steeringDepth     = 3
	steeringMaxStates = 128
	predictMaxStates  = 256
	// envelopeOverhead is added to every message's modeled size.
	envelopeOverhead = 32
)

func (c *Config) fill() {
	if c.NewResolver == nil {
		c.NewResolver = func(*Node) Resolver { return Random{} }
	}
}

// Stats aggregates per-node runtime counters.
type Stats struct {
	Choices     uint64 // Choose() calls resolved
	Predictions uint64 // predictive resolutions computed inline
	// AsyncPredictions is always 0: resolution runs only inline. The
	// field stays because the benchmark module reports it.
	AsyncPredictions uint64
	CacheHits        uint64 // predictive resolutions answered from cache
	CacheMisses      uint64 // decision-cache lookups that missed
	LookaheadStates  uint64 // handler executions inside lookahead worlds
	Steered          uint64 // messages dropped by execution steering
	SteeringChecks   uint64 // messages inspected by steering
	Checkpoints      uint64 // checkpoint responses received
	DroppedWindows   uint64 // decisions overrunning Config.DecisionSlot
	// ClassCacheHits counts choice resolutions answered per scenario from
	// the class-keyed verdict cache (Config.LookaheadClassCache).
	// ClassCacheMisses counts class lookups that had to fall through to a
	// full lookahead;
	// ClassInvalidations counts cached verdicts dropped by topology
	// events (crash, restart, partition, heal).
	ClassCacheHits     uint64
	ClassCacheMisses   uint64
	ClassInvalidations uint64
	// SteerLatency and ResolveLatency histogram the wall-clock cost of
	// the two interposition decision points: one sample per steering
	// check (steerAway, with- and without-message lookaheads included)
	// and one per predictive choice resolution (cache hits and
	// predictions alike). They
	// observe the host's real clock, never virtual time, and feed no
	// digest — pure observability for the benchmark.
	SteerLatency   LatencyHist
	ResolveLatency LatencyHist
}

func (s *Stats) add(o Stats) {
	s.Choices += o.Choices
	s.Predictions += o.Predictions
	s.AsyncPredictions += o.AsyncPredictions
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.LookaheadStates += o.LookaheadStates
	s.Steered += o.Steered
	s.SteeringChecks += o.SteeringChecks
	s.Checkpoints += o.Checkpoints
	s.DroppedWindows += o.DroppedWindows
	s.ClassCacheHits += o.ClassCacheHits
	s.ClassCacheMisses += o.ClassCacheMisses
	s.ClassInvalidations += o.ClassInvalidations
	s.SteerLatency.add(&o.SteerLatency)
	s.ResolveLatency.add(&o.ResolveLatency)
}

// HitRate returns hits over total lookups, or 0 when none happened — the
// one cache-hit-fraction computation shared by Stats and anything else
// reporting hit percentages.
func HitRate(hits, misses uint64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// CacheHitRate returns the decision-cache hit fraction, or 0 when no
// lookups happened.
func (s *Stats) CacheHitRate() float64 { return HitRate(s.CacheHits, s.CacheMisses) }

// ClassCacheHitRate returns the class-verdict cache hit fraction, or 0
// when no class lookups happened.
func (s *Stats) ClassCacheHitRate() float64 { return HitRate(s.ClassCacheHits, s.ClassCacheMisses) }

// delivery is one runtime message in flight, and the one heap object it
// costs from send to handler: the transport's record, which is also the
// simulator event that delivers it, and the service's view of it.
// tm.Payload points back at the delivery (a pointer in an interface
// allocates nothing), and tm.SentAt, the send instant, is what the passive
// network model measures latency from.
type delivery struct {
	tm  transport.Message
	msg sm.Msg
}

// newDelivery builds the record of one message; size includes the
// envelope overhead.
func newDelivery(src, dst NodeID, kind string, body any, size int, reliable bool) *delivery {
	d := &delivery{msg: sm.Msg{Src: src, Dst: dst, Kind: kind, Body: body, Size: size, Unreliable: !reliable}}
	d.tm = transport.Message{Src: src, Dst: dst, Kind: kind, Payload: d, Size: size, Reliable: reliable}
	return d
}

// pendingEvent is the event currently being dispatched on a node,
// replayable inside lookahead worlds. A node keeps it inline (Node.event):
// the zero value means no event is being dispatched.
type pendingEvent struct {
	msg   *sm.Msg // nil for timer events
	timer string
	// choiceFree marks an event the service declared unable to reach
	// Choose (sm.ChoiceSites), so no pre-event snapshot was taken for it.
	choiceFree bool
}

func (e *pendingEvent) label() string {
	if e.msg != nil {
		return "m:" + e.msg.Kind
	}
	return "t:" + e.timer
}

func (e *pendingEvent) injectInto(w *explore.World, self NodeID) {
	if e.msg != nil {
		cp := *e.msg
		w.InjectMessage(&cp)
	} else {
		w.SetTimerPending(self, e.timer)
	}
}

// PanicRecord captures one handler panic contained by
// Config.ContainPanics: which node, which event was being dispatched,
// the recovered value, and the virtual time.
type PanicRecord struct {
	Node  NodeID
	Event string // "m:<kind>" or "t:<name>"
	Value any
	At    time.Duration
}

// Cluster is a set of runtime nodes sharing one simulated deployment.
type Cluster struct {
	eng    *sim.Engine
	net    *transport.Network
	cfg    Config
	nodes  map[NodeID]*Node
	order  []NodeID
	panics []PanicRecord
	// topoEpoch counts topology events — crash, restart, partition, heal.
	// Cached interposition verdicts (per-digest decisions and class
	// verdicts) are stamped with the epoch they were computed under and
	// flushed lazily on mismatch: a verdict about one reachability
	// relation says nothing about another.
	topoEpoch uint64
	// carryRoots says some configured property has an incremental form, so
	// a lookahead's start world is worth keeping for the next one's root
	// check (Node.explore). Without one the kept world would only pin its
	// service clones.
	carryRoots bool
}

// Panics returns the handler panics contained so far (empty unless
// Config.ContainPanics is set).
func (c *Cluster) Panics() []PanicRecord { return c.panics }

// NewCluster creates a cluster over the given engine and network.
func NewCluster(eng *sim.Engine, net *transport.Network, cfg Config) *Cluster {
	cfg.fill()
	c := &Cluster{eng: eng, net: net, cfg: cfg, nodes: make(map[NodeID]*Node)}
	c.carryRoots = slices.ContainsFunc(cfg.Properties, func(p explore.Property) bool { return p.Step != nil })
	// Partition-relation changes land directly on the network (fault
	// schedules call Partition/Heal/HealGroups); observe them so cached
	// verdicts cannot survive a reachability change.
	net.SetTopoListener(func() { c.topoEpoch++ })
	return c
}

// TopoEpoch returns the cluster's topology-event counter (tests and
// experiment harnesses observe invalidation through it).
func (c *Cluster) TopoEpoch() uint64 { return c.topoEpoch }

// Engine returns the simulation engine.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Network returns the transport network.
func (c *Cluster) Network() *transport.Network { return c.net }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// AddNode registers a node running svc. Call before Start.
func (c *Cluster) AddNode(id NodeID, svc sm.Service) *Node {
	if _, dup := c.nodes[id]; dup {
		panic(fmt.Sprintf("core: duplicate node %v", id))
	}
	n := &Node{
		id:            id,
		svc:           svc,
		cluster:       c,
		rng:           c.eng.Fork(),
		lookRng:       c.eng.Fork(),
		timers:        make(map[string]*sim.Timer),
		model:         model.New(id),
		decisionCache: make(map[uint64]int),
	}
	n.lookPolicy = explore.RandomPolicy(n.lookRng)
	n.steerX = steerExplorer(c.cfg.Properties)
	if c.cfg.CheckpointInterval > 0 {
		// Checkpoints older than a few rounds are presumed to describe
		// departed or unreachable nodes and are excluded from lookahead.
		n.model.MaxAge = 6 * c.cfg.CheckpointInterval
	}
	n.resolver = c.cfg.NewResolver(n)
	if c.cfg.ObjectiveFor != nil {
		n.objective = c.cfg.ObjectiveFor(n)
	}
	n.ckpt = checkpoint.NewManager(id)
	n.ckpt.Neighbors = n.checkpointNeighbors
	n.ckpt.SelfState = func() sm.Service { return n.svc.Clone() }
	n.ckpt.Now = func() time.Duration { return time.Duration(c.eng.Now()) }
	n.ckpt.Send = func(dst NodeID, kind string, body any, size int) {
		n.sendRaw(dst, kind, body, size, true)
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
	c.net.Attach(id, n.onDeliver)
	c.net.SetConnListener(id, n.onConnDown)
	return n
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Nodes returns all nodes in insertion order.
func (c *Cluster) Nodes() []*Node {
	out := make([]*Node, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.nodes[id])
	}
	return out
}

// Start initializes every node and begins checkpoint exchange.
func (c *Cluster) Start() {
	for _, id := range c.order {
		c.nodes[id].start()
	}
}

// Crash fails a node: its timers stop, its endpoint goes down, and traffic
// to and from it is dropped.
func (c *Cluster) Crash(id NodeID) {
	n := c.nodes[id]
	if n == nil || n.down {
		return
	}
	n.down = true
	for _, t := range n.timers {
		t.Cancel()
	}
	n.timers = make(map[string]*sim.Timer)
	if n.ckptTimer != nil {
		n.ckptTimer.Cancel()
	}
	n.lookRoot = nil
	c.topoEpoch++
	c.net.Crash(id)
	c.cfg.Trace.Add(time.Duration(c.eng.Now()), int(id), "CRASH")
}

// Restart revives a crashed node. If fresh is non-nil it replaces the
// service state (modeling a process restart from scratch); otherwise the
// pre-crash state is kept. Restarting a live node is a no-op: a second
// start() would re-run svc.Init and schedule a duplicate checkpoint loop
// next to the live ckptTimer, doubling cb.ckpt.* traffic forever.
func (c *Cluster) Restart(id NodeID, fresh sm.Service) {
	n := c.nodes[id]
	if n == nil || !n.down {
		return
	}
	if fresh != nil {
		n.svc = fresh
	}
	n.down = false
	n.decisionCache = make(map[uint64]int)
	n.lookRoot = nil
	c.topoEpoch++
	c.net.Restart(id)
	c.cfg.Trace.Add(time.Duration(c.eng.Now()), int(id), "RESTART")
	n.start()
}

// MaterializeWorld snapshots the cluster's live global state as an
// explorable world: per-node service clones, down flags, the network's
// partition relation, and the given protocol timers marked pending on
// every live node. Recovery inside the world restores the freshest
// checkpoint any node's state model retains for the target (the one
// RecoveryState returns), falling back to the cluster's InitialState hook,
// so offline fault exploration replays the same restart states the
// predictive runtime would.
func (c *Cluster) MaterializeWorld(policy explore.ChoicePolicy, seed int64, timers []string) *explore.World {
	w := explore.NewWorld(policy, seed)
	w.Now = time.Duration(c.eng.Now())
	for _, id := range c.order {
		n := c.nodes[id]
		w.AddNode(id, n.svc.Clone())
		if n.down {
			w.SetDown(id, true)
			continue
		}
		for _, t := range timers {
			w.SetTimerPending(id, t)
		}
	}
	for _, p := range c.net.Partitions() {
		w.PartitionPair(p[0], p[1])
	}
	// Snapshot recovery state eagerly, like every other piece of the
	// materialized world: the freshest retained checkpoint entry per node
	// is captured now (entries are immutable once stored — a state model
	// only ever replaces them), so the hooks never read live cluster state
	// after materialization and are safe for concurrent exploration workers.
	best := make(map[NodeID]model.StateEntry)
	for _, id := range c.order {
		if e, ok := c.freshestCheckpoint(id); ok {
			best[id] = e
		}
	}
	w.Recovery = func(id NodeID) sm.Service {
		e, ok := best[id]
		if !ok {
			return nil
		}
		return e.State.Clone()
	}
	w.HasRecovery = func(id NodeID) bool { _, ok := best[id]; return ok }
	w.Initial = c.cfg.InitialState
	return w
}

// RecoveryState returns a clone of the freshest checkpoint any node in the
// cluster retains for id, or nil when none is held.
func (c *Cluster) RecoveryState(id NodeID) sm.Service {
	e, ok := c.freshestCheckpoint(id)
	if !ok {
		return nil
	}
	return e.State.Clone()
}

// freshestCheckpoint returns the freshest entry for id across every node's
// state model; of equally fresh ones, the first holder's in cluster order.
func (c *Cluster) freshestCheckpoint(id NodeID) (best model.StateEntry, found bool) {
	for _, nid := range c.order {
		if e, ok := c.nodes[nid].model.State.Get(id); ok && (!found || e.Fresher(best)) {
			best, found = e, true
		}
	}
	return best, found
}

// Stats sums runtime counters over all nodes.
func (c *Cluster) Stats() Stats {
	var s Stats
	for _, id := range c.order {
		s.add(c.nodes[id].stats)
	}
	return s
}

// Node is one CrystalBall-enabled runtime instance (Figure 1): it
// interposes between the network and the service state machine, maintains
// the predictive model, and resolves the service's exposed choices.
type Node struct {
	id       NodeID
	svc      sm.Service
	cluster  *Cluster
	rng      *rand.Rand
	lookRng  *rand.Rand
	lookSeed int64
	// lookPolicy draws lookahead choices from lookRng; steerX is
	// steerAway's explorer. Both are built once: a decision allocates what
	// its handlers allocate, not its own plumbing.
	lookPolicy explore.ChoicePolicy
	steerX     *explore.Explorer

	resolver  Resolver
	objective explore.Objective
	model     *model.Model
	ckpt      *checkpoint.Manager
	ckptTimer *sim.Timer

	timers map[string]*sim.Timer
	down   bool

	// event and preEventState describe the event being dispatched; a
	// dispatch nested in a handler (Inject) restores the outer ones.
	event         pendingEvent
	preEventState sm.Service
	// lookRoot is the start world of the node's last lookahead, kept while
	// no violation was predicted from it (see explore).
	lookRoot *explore.World

	decisionCache map[uint64]int
	// cacheEpoch stamps the cluster topology epoch decisionCache and
	// classChoice were computed under; syncCaches flushes both lazily on
	// mismatch (see Cluster.topoEpoch).
	cacheEpoch uint64
	// classChoice maps a (choice, arity, event-kind) scenario key to the
	// decisive winner of a past prediction. Nil until first use; only
	// consulted under Config.LookaheadClassCache.
	classChoice map[uint64]classVerdict
	stats       Stats
}

// ID returns the node's identity.
func (n *Node) ID() NodeID { return n.id }

// Service returns the live service state machine. Callers must not mutate
// it; use it for read-only inspection in experiments.
func (n *Node) Service() sm.Service { return n.svc }

// Model returns the node's predictive system model.
func (n *Node) Model() *model.Model { return n.model }

// Rand returns the node's deterministic RNG, for resolvers implemented
// outside this package.
func (n *Node) Rand() *rand.Rand { return n.rng }

// SendApp transmits an application-level message from this node over the
// reliable service, exactly as the service itself would. Harnesses use it
// to model stale or adversarial protocol traffic.
func (n *Node) SendApp(dst NodeID, kind string, body any, size int) {
	n.sendRaw(dst, kind, body, size, true)
}

// Inject delivers an externally originated message (e.g. a client request
// entering the system) to this node through the normal dispatch path, so
// interposition — steering, pre-event cloning, choice resolution — applies
// exactly as for network-delivered messages. In particular an injected
// request predicted to violate a safety property is steered away like any
// network delivery would be; being self-sourced, it only drops (there is
// no sender connection to break).
func (n *Node) Inject(kind string, body any, size int) {
	if n.down {
		return
	}
	msg := &sm.Msg{Src: n.id, Dst: n.id, Kind: kind, Body: body, Size: size}
	if n.cluster.cfg.Steering && len(n.cluster.cfg.Properties) > 0 {
		if n.steerAway(msg) {
			return
		}
	}
	n.dispatchMessage(msg)
}

// Resolver returns the node's choice resolver.
func (n *Node) Resolver() Resolver { return n.resolver }

// Stats returns the node's runtime counters.
func (n *Node) Stats() Stats { return n.stats }

// Down reports whether the node is crashed.
func (n *Node) Down() bool { return n.down }

// Snapshot returns the node's latest neighborhood snapshot, assembled from
// its state model.
func (n *Node) Snapshot() model.Snapshot {
	return n.model.State.Snapshot(n.id, n.svc.Clone(), time.Duration(n.cluster.eng.Now()), n.checkpointNeighbors())
}

func (n *Node) start() {
	n.svc.Init(n.env())
	if iv := n.cluster.cfg.CheckpointInterval; iv > 0 {
		n.scheduleCheckpoint(iv)
	}
}

func (n *Node) scheduleCheckpoint(iv time.Duration) {
	// Jitter the period ±10% so checkpoint storms do not synchronize.
	jit := time.Duration(float64(iv) * (0.9 + 0.2*n.rng.Float64()))
	n.ckptTimer = n.cluster.eng.Schedule(jit, func() {
		if n.down {
			return
		}
		n.ckpt.Tick()
		n.scheduleCheckpoint(iv)
	})
}

func (n *Node) checkpointNeighbors() []NodeID {
	if nb, ok := n.svc.(sm.Neighborly); ok {
		return nb.Neighbors()
	}
	// Full global knowledge fallback (paper §2: "CrystalBall also works
	// with systems with full global knowledge").
	out := make([]NodeID, 0, len(n.cluster.order)-1)
	for _, id := range n.cluster.order {
		if id != n.id {
			out = append(out, id)
		}
	}
	return out
}

// env returns the sm.Env view of this node.
func (n *Node) env() sm.Env { return (*liveEnv)(n) }

func (n *Node) sendRaw(dst NodeID, kind string, body any, size int, reliable bool) {
	n.cluster.net.Transmit(&newDelivery(n.id, dst, kind, body, size+envelopeOverhead, reliable).tm)
}

// onDeliver is the transport handler: it feeds the network model, routes
// runtime-internal kinds, applies execution steering, and finally
// dispatches the delivery's message to the service.
func (n *Node) onDeliver(tm *transport.Message) {
	if n.down {
		return
	}
	d, ok := tm.Payload.(*delivery)
	if !ok {
		return
	}
	now := time.Duration(n.cluster.eng.Now())
	if lat := now - time.Duration(tm.SentAt); lat >= 0 {
		n.model.Net.ObserveLatency(tm.Src, lat, now)
		if tm.Size > 1024 && lat > 0 {
			n.model.Net.ObserveBandwidth(tm.Src, float64(tm.Size)/lat.Seconds(), now)
		}
	}
	if strings.HasPrefix(tm.Kind, "cb.ckpt.") {
		// A response's state is already a clone the sender made for this
		// node: the model retains it as delivered.
		if resp, isResp := d.msg.Body.(checkpoint.Response); isResp {
			n.stats.Checkpoints++
			n.model.State.Update(tm.Src, resp.State, resp.At, resp.Epoch)
		} else {
			n.ckpt.HandleMessage(tm.Src, tm.Kind, d.msg.Body)
		}
		return
	}
	msg := &d.msg
	if n.cluster.cfg.Steering && len(n.cluster.cfg.Properties) > 0 {
		if n.steerAway(msg) {
			return
		}
	}
	n.dispatchMessage(msg)
}

// steerExplorer configures the explorer steerAway runs: an inline,
// fault-free ChainDFS over props. Steering predicates on violations
// *caused by this message*: it compares the with-message future against
// the without-message one and steers only when the difference is
// unsafe-vs-safe. Fault branching stays off — a violation reachable
// through a crash or reset alone would taint both futures equally, making
// every message look unsteerable (and paying two fault searches per
// delivery for it). Config.FaultBudget applies to choice resolution, not
// steering.
func steerExplorer(props []explore.Property) *explore.Explorer {
	x := explore.NewExplorer(steeringDepth)
	x.MaxStates = steeringMaxStates
	x.Properties = props
	return x
}

// steerAway reports whether delivering msg is predicted to violate a
// safety property while not delivering it is predicted safe; if so the
// message is dropped and the connection to its sender broken (paper §2).
func (n *Node) steerAway(msg *sm.Msg) bool {
	n.stats.SteeringChecks++
	start := time.Now() //crystalvet:wallclock stopwatch for steering-latency stats; never reaches world state
	defer func() { n.observeDecision(&n.stats.SteerLatency, start) }()
	now := time.Duration(n.cluster.eng.Now())
	withMsg := n.buildLookahead(n.svc.Clone(), n.lookPolicy)
	// msg itself goes in flight: a world never writes a message but for
	// its digest memo, and delivery records are not recycled, so the one
	// a retained root still holds stays what it was.
	withMsg.InjectMessage(msg)
	rWith := n.explore(n.steerX, withMsg)
	if rWith.Safe() {
		return false
	}
	// Only steer if the alternative (dropping the message) is not itself
	// predicted to lead to a violation.
	without := n.buildLookahead(n.svc.Clone(), n.lookPolicy)
	if rWithout := n.explore(n.steerX, without); !rWithout.Safe() {
		return false
	}
	n.stats.Steered++
	n.cluster.cfg.Trace.Add(now, int(n.id), "STEER drop %s from %v", msg.Kind, msg.Src)
	// Self-sourced messages (client requests entering via Inject) have no
	// sender connection to break: dropping is the whole corrective action.
	if msg.Src != n.id {
		n.cluster.net.BreakConnection(n.id, msg.Src)
	}
	return true
}

// observeDecision records the wall-clock cost of one interposition
// decision into h and counts a dropped window when it overran the
// configured delivery slot.
func (n *Node) observeDecision(h *LatencyHist, start time.Time) {
	d := time.Since(start) //crystalvet:wallclock stopwatch readout for latency histograms; never reaches world state
	h.Observe(d)
	if slot := n.cluster.cfg.DecisionSlot; slot > 0 && d > slot {
		n.stats.DroppedWindows++
	}
}

// buildLookahead assembles a lookahead world from the node's predictive
// model — pre-event self state plus fresh neighborhood checkpoints, with
// recovery wired to the checkpointed states and cold restarts to the
// cluster's InitialState hook — and advances the node's lookahead seed.
func (n *Node) buildLookahead(base sm.Service, policy explore.ChoicePolicy) *explore.World {
	w := n.model.BuildWorld(base, time.Duration(n.cluster.eng.Now()), policy, n.lookSeed)
	n.lookSeed++
	w.Initial = n.cluster.cfg.InitialState
	return w
}

// explore runs one lookahead from w. Consecutive lookahead worlds of a
// node are built from one lineage of service states — its live service
// and the checkpoints its model retains, cloned afresh each time — so
// the previous root is handed over as Explorer.Prior and w's root check
// looks only at what changed between the two. w is kept for the next
// lookahead in turn when it can serve as one: no violation was predicted
// from it, and some property has an incremental form to check with.
//
// A root that is done with goes back to the world free-list instead of
// the garbage collector, so the next lookahead's forks reuse its shell
// and containers: the previous root always (it was kept only from a safe
// run, so no witness world shares its containers, and its forks all died
// inside that run), w when its run was safe but it is not kept.
//
// The report comes back as a copy: x.Explore may return x's own report,
// lent until x's next run, and x may outlive the call (steerX). The loan
// is cleared here, so no caller holds an alias a later run overwrites and
// x keeps no unsafe run's witness worlds alive until its next check.
func (n *Node) explore(x *explore.Explorer, w *explore.World) explore.Report {
	prior := n.lookRoot
	x.Prior = prior
	r := x.Explore(w)
	x.Prior = nil // x may outlive the call (steerX); the old root must not
	n.stats.LookaheadStates += uint64(r.StatesExplored)
	n.lookRoot = nil
	prior.Retire()
	if r.Safe() {
		if n.cluster.carryRoots {
			n.lookRoot = w
		} else {
			w.Retire()
		}
	}
	rep := *r
	*r = explore.Report{}
	return rep
}

// resolverReadsPreEventState reports whether the node's resolver reads
// preEventState, the clone of the service taken before a handler that can
// reach Choose. Only Predictive does; steering forks the live service
// itself, before the handler (steerAway), so a steering node with any
// other resolver dispatches without a clone.
func (n *Node) resolverReadsPreEventState() bool {
	_, ok := n.resolver.(*Predictive)
	return ok
}

// exposesChoice reports whether ev's handler may reach Choose: always,
// unless the service declares its choice sites (sm.ChoiceSites) and ev is
// not one of them.
func (n *Node) exposesChoice(ev *pendingEvent) bool {
	cs, ok := n.svc.(sm.ChoiceSites)
	if !ok {
		return true
	}
	if ev.msg != nil {
		return cs.ExposesChoice(ev.msg.Kind, "")
	}
	return cs.ExposesChoice("", ev.timer)
}

func (n *Node) dispatchMessage(msg *sm.Msg) {
	outer, outerPre := n.beginEvent(pendingEvent{msg: msg})
	n.runHandler(func() { n.svc.OnMessage(n.env(), msg) })
	n.event, n.preEventState = outer, outerPre
}

func (n *Node) dispatchTimer(name string) {
	if n.down {
		return
	}
	delete(n.timers, name)
	outer, outerPre := n.beginEvent(pendingEvent{timer: name})
	n.runHandler(func() { n.svc.OnTimer(n.env(), name) })
	n.event, n.preEventState = outer, outerPre
}

// beginEvent makes ev the event being dispatched, with its pre-event
// clone when the resolver reads one and ev can reach Choose, and returns
// the event and clone it replaces for the caller to restore once the
// handler returns: the zero event, which pins no message, or the outer
// event of a handler that dispatches another one (Inject) before it
// resolves a choice. An event the service declares choice-free is marked
// so instead of cloned: its handler writes the live state in place.
func (n *Node) beginEvent(ev pendingEvent) (pendingEvent, sm.Service) {
	outer, outerPre := n.event, n.preEventState
	n.preEventState = nil
	if n.resolverReadsPreEventState() {
		if n.exposesChoice(&ev) {
			n.preEventState = n.svc.Clone()
		} else {
			ev.choiceFree = true
		}
	}
	n.event = ev
	return outer, outerPre
}

// runHandler executes one service handler. Under Config.ContainPanics a
// panic is recorded on the cluster and the node crashed — containing the
// blast radius to the faulty node, like a supervisor restarting a wedged
// process — instead of unwinding through the engine. The dispatch that
// called it restores the node's event bookkeeping when it returns, so a
// later Restart starts from a consistent node.
func (n *Node) runHandler(fn func()) {
	if !n.cluster.cfg.ContainPanics {
		fn()
		return
	}
	defer func() {
		if p := recover(); p != nil {
			n.cluster.panics = append(n.cluster.panics, PanicRecord{
				Node:  n.id,
				Event: n.event.label(),
				Value: p,
				At:    time.Duration(n.cluster.eng.Now()),
			})
			n.cluster.Crash(n.id)
		}
	}()
	fn()
}

func (n *Node) onConnDown(peer NodeID) {
	if n.down {
		return
	}
	if ca, ok := n.svc.(sm.ConnAware); ok {
		ca.OnConnDown(n.env(), peer)
	}
}

// liveEnv adapts *Node to sm.Env for the live deployment.
type liveEnv Node

func (e *liveEnv) node() *Node { return (*Node)(e) }

// ID returns the node's identity.
func (e *liveEnv) ID() NodeID { return e.id }

// Now returns virtual time since simulation start.
func (e *liveEnv) Now() time.Duration { return time.Duration(e.cluster.eng.Now()) }

// Send transmits over the reliable service.
func (e *liveEnv) Send(dst NodeID, kind string, body any, size int) {
	e.node().sendRaw(dst, kind, body, size, true)
}

// SendDatagram transmits a best-effort datagram.
func (e *liveEnv) SendDatagram(dst NodeID, kind string, body any, size int) {
	e.node().sendRaw(dst, kind, body, size, false)
}

// SetTimer (re)schedules the named timer.
func (e *liveEnv) SetTimer(name string, d time.Duration) {
	n := e.node()
	if t := n.timers[name]; t != nil {
		t.Cancel()
	}
	n.timers[name] = n.cluster.eng.Schedule(d, func() { n.dispatchTimer(name) })
}

// CancelTimer cancels the named timer.
func (e *liveEnv) CancelTimer(name string) {
	n := e.node()
	if t := n.timers[name]; t != nil {
		t.Cancel()
		delete(n.timers, name)
	}
}

// Rand returns the node's deterministic RNG.
func (e *liveEnv) Rand() *rand.Rand { return e.rng }

// Choose resolves an exposed choice via the node's resolver. A choice
// from an event the service declared choice-free has no pre-event state
// to replay from: it panics naming the event rather than resolve blind.
func (e *liveEnv) Choose(c sm.Choice) int {
	n := e.node()
	if n.event.choiceFree {
		panic(fmt.Sprintf("core: %v chose %q during %s, which %T declares choice-free (sm.ChoiceSites)",
			n.id, c.Name, n.event.label(), n.svc))
	}
	n.stats.Choices++
	idx := n.resolver.Resolve(n, c)
	if idx < 0 || idx >= c.N {
		idx = 0
	}
	if n.cluster.cfg.Trace != nil && c.Label != nil {
		n.cluster.cfg.Trace.Add(time.Duration(n.cluster.eng.Now()), int(n.id), "CHOOSE %s -> %s", c.Name, c.Label(idx))
	}
	return idx
}

// Logf records a trace line.
func (e *liveEnv) Logf(format string, args ...any) {
	e.cluster.cfg.Trace.Add(time.Duration(e.cluster.eng.Now()), int(e.id), format, args...)
}
