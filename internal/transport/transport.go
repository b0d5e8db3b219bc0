// Package transport simulates message delivery between nodes over a
// netmodel.Topology inside a sim.Engine.
//
// Two services are offered, mirroring what the Mace runtime gave the paper's
// protocols:
//
//   - a reliable, in-order, connection-oriented service (TCP-like). Per
//     ordered pair the channel is FIFO; loss inflates effective latency
//     (retransmission) instead of dropping; connections can be broken, which
//     is the corrective action CrystalBall's execution steering uses.
//   - an unreliable datagram service (UDP-like) subject to the path loss
//     probability.
//
// Delivery time models propagation latency plus serialization at the path
// bandwidth, with per-ordered-pair FIFO queueing for the reliable service.
package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
)

// NodeID aliases netmodel.NodeID for convenience.
type NodeID = netmodel.NodeID

// Message is a protocol message in flight. Once sent it is also the
// simulator event that delivers it (sim.Event), so a message costs the
// network one heap object from send to handler.
type Message struct {
	Src, Dst NodeID
	Kind     string
	Payload  any
	Size     int // bytes, for bandwidth modeling; 0 means header-only
	Reliable bool
	// Seq and SentAt are assigned by the network when it accepts the
	// message: a sequence number unique per simulation, and the send
	// instant (before any upload-queue wait).
	Seq    uint64
	SentAt sim.Time

	net *Network
}

// Fire delivers a message the network accepted. The engine calls it at
// the delivery instant the network scheduled.
func (m *Message) Fire() { m.net.deliver(m) }

func (m *Message) String() string {
	return fmt.Sprintf("%v->%v %s(seq=%d,%dB)", m.Src, m.Dst, m.Kind, m.Seq, m.Size)
}

// Handler receives delivered messages at an endpoint.
type Handler func(m *Message)

// ConnListener is notified when a reliable connection involving the
// endpoint breaks (the peer is identified). Protocols use this for failure
// detection, as RandTree does when CrystalBall severs a connection.
type ConnListener func(peer NodeID)

// Stats counts traffic through the network.
type Stats struct {
	Sent, Delivered, Dropped uint64
	Bytes                    uint64
}

type endpoint struct {
	id       NodeID
	handler  Handler
	connDown ConnListener
	up       bool
	// selfHorizon is the reliable self-channel's FIFO state: the latest
	// delivery time of a self-send. A self-path has no latency, loss or
	// serialization, but a capped uplink can still hold a self-send back
	// past a later one that skips the uplink (size 0, or sent after the
	// cap is lifted). It lives here, not in Network.channels, because a
	// self-send may come from an ID outside the topology.
	selfHorizon sim.Time
}

type pairKey struct{ src, dst NodeID }

// channel is the reliable service's FIFO state of one ordered pair.
// busyUntil models the serialization queue: a message cannot begin
// transmission before the previous one finished. lastDeliver enforces
// in-order delivery despite variable retransmission delay.
type channel struct {
	busyUntil, lastDeliver sim.Time
}

// Network connects endpoints over a topology.
type Network struct {
	eng *sim.Engine
	top *netmodel.Topology
	rng *rand.Rand
	// eps holds the endpoints of the topology's IDs, indexed by ID, and
	// far those of IDs outside it (a node outside the topology can still
	// send to itself).
	eps   []*endpoint
	far   map[NodeID]*endpoint
	seq   uint64
	stats Stats

	// channels holds every ordered pair's reliable channel, indexed
	// src*top.Size()+dst like the topology's link matrix.
	channels []channel
	// uploadBps, when set for a node, models a shared uplink: all of the
	// node's outgoing messages serialize through one queue at this rate
	// before entering their per-pair channels (uploadBusy tracks the
	// queue's horizon).
	uploadBps  map[NodeID]float64
	uploadBusy map[NodeID]sim.Time
	// brokenUntil marks reliable connections severed until the given time;
	// zero value means healthy.
	brokenUntil map[pairKey]sim.Time
	// partitioned marks pairs cut by a network partition (both services).
	partitioned map[pairKey]bool

	// ReconnectDelay is how long a broken connection stays down before a
	// fresh connection may be established. Default 1s.
	ReconnectDelay time.Duration

	// topoListener, when set, is invoked synchronously after every
	// partition-relation change (Partition, Heal, HealGroups). The
	// CrystalBall runtime registers it to invalidate cached steering and
	// resolution verdicts: a verdict computed under one reachability
	// relation says nothing about another.
	topoListener func()

	// Monitor, when set, observes every delivered message (after the drop
	// checks, before the handler). Experiment harnesses use it for
	// traffic accounting, e.g. cross-ISP byte counts.
	Monitor func(m *Message)
}

// New creates a network over the topology, driven by the engine.
func New(eng *sim.Engine, top *netmodel.Topology) *Network {
	return &Network{
		eng:            eng,
		top:            top,
		rng:            eng.Fork(),
		eps:            make([]*endpoint, top.Size()),
		far:            make(map[NodeID]*endpoint),
		channels:       make([]channel, top.Size()*top.Size()),
		uploadBps:      make(map[NodeID]float64),
		uploadBusy:     make(map[NodeID]sim.Time),
		brokenUntil:    make(map[pairKey]sim.Time),
		partitioned:    make(map[pairKey]bool),
		ReconnectDelay: time.Second,
	}
}

// Topology returns the underlying topology (shared, not a copy).
func (n *Network) Topology() *netmodel.Topology { return n.top }

// Engine returns the driving simulation engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// Attach registers a node's message handler and brings the endpoint up.
func (n *Network) Attach(id NodeID, h Handler) {
	if h == nil {
		panic("transport: Attach with nil handler")
	}
	ep := n.ep(id)
	ep.handler = h
	ep.up = true
}

// SetConnListener registers the callback invoked when a reliable connection
// involving id is broken.
func (n *Network) SetConnListener(id NodeID, l ConnListener) {
	n.ep(id).connDown = l
}

// lookup returns id's endpoint, or nil if it has none.
func (n *Network) lookup(id NodeID) *endpoint {
	if uint(id) < uint(len(n.eps)) {
		return n.eps[id]
	}
	return n.far[id]
}

// ep returns id's endpoint, creating it if needed.
func (n *Network) ep(id NodeID) *endpoint {
	if ep := n.lookup(id); ep != nil {
		return ep
	}
	ep := &endpoint{id: id}
	if uint(id) < uint(len(n.eps)) {
		n.eps[id] = ep
	} else {
		n.far[id] = ep
	}
	return ep
}

// SetTopoListener registers the callback invoked after every
// partition-relation change. At most one listener is supported; nil
// clears it. Crash and Restart are not reported here — they flow through
// the runtime's own Cluster methods, which observe them directly.
func (n *Network) SetTopoListener(l func()) { n.topoListener = l }

func (n *Network) topoChanged() {
	if n.topoListener != nil {
		n.topoListener()
	}
}

// Crash takes the endpoint down: all queued and future messages to or from
// it are dropped until Restart.
func (n *Network) Crash(id NodeID) { n.ep(id).up = false }

// Restart brings a crashed endpoint back up. Its handler must have been
// attached (or be re-attached) for delivery to resume.
func (n *Network) Restart(id NodeID) { n.ep(id).up = true }

// Up reports whether the endpoint is attached and running.
func (n *Network) Up(id NodeID) bool {
	ep := n.lookup(id)
	return ep != nil && ep.up && ep.handler != nil
}

// Partition cuts connectivity between every node in a and every node in b,
// in both directions, until Heal is called.
func (n *Network) Partition(a, b []NodeID) {
	for _, x := range a {
		for _, y := range b {
			n.partitioned[pairKey{x, y}] = true
			n.partitioned[pairKey{y, x}] = true
		}
	}
	n.topoChanged()
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.partitioned = make(map[pairKey]bool)
	n.topoChanged()
}

// HealGroups removes the partition between every node in a and every node
// in b, in both directions, leaving any other active partition in place.
// This is the primitive flapping and overlapping partition schedules need:
// Heal's heal-all semantics would erase concurrent cuts.
func (n *Network) HealGroups(a, b []NodeID) {
	for _, x := range a {
		for _, y := range b {
			delete(n.partitioned, pairKey{x, y})
			delete(n.partitioned, pairKey{y, x})
		}
	}
	n.topoChanged()
}

// Partitions returns the currently partitioned node pairs, sorted and
// deduplicated (Partition cuts both directions, so each cut appears once,
// normalized low-high). Lookahead world builders use it to mirror the live
// partition state into an explorable world's reachability relation; the
// sort keeps that mirroring — and anything that logs the pairs — stable
// across runs.
func (n *Network) Partitions() [][2]NodeID {
	seen := make(map[[2]NodeID]bool, len(n.partitioned)/2)
	out := make([][2]NodeID, 0, len(n.partitioned)/2)
	for k := range n.partitioned {
		p := [2]NodeID{k.src, k.dst}
		if p[0] > p[1] {
			p[0], p[1] = p[1], p[0]
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	slices.SortFunc(out, func(a, b [2]NodeID) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	})
	return out
}

// BreakConnection severs the reliable channel between a and b in both
// directions for ReconnectDelay, notifying both connection listeners. This
// is the corrective action available to execution steering.
func (n *Network) BreakConnection(a, b NodeID) {
	until := n.eng.Now().Add(n.ReconnectDelay)
	n.brokenUntil[pairKey{a, b}] = until
	n.brokenUntil[pairKey{b, a}] = until
	if ep := n.lookup(a); ep != nil && ep.connDown != nil && ep.up {
		peer := b
		n.eng.Schedule(0, func() { ep.connDown(peer) })
	}
	if ep := n.lookup(b); ep != nil && ep.connDown != nil && ep.up {
		peer := a
		n.eng.Schedule(0, func() { ep.connDown(peer) })
	}
}

// ConnectionBroken reports whether the reliable channel a->b is currently
// severed.
func (n *Network) ConnectionBroken(a, b NodeID) bool {
	return n.brokenUntil[pairKey{a, b}] > n.eng.Now()
}

// SetUploadCapacity gives a node a shared uplink of bps bytes/sec: all its
// outgoing traffic, to every destination, serializes through one queue at
// that rate (in addition to per-path constraints). Zero removes the cap.
func (n *Network) SetUploadCapacity(id NodeID, bps float64) {
	if bps <= 0 {
		delete(n.uploadBps, id)
		return
	}
	n.uploadBps[id] = bps
}

// Send transmits a message over the reliable connection-oriented service.
// It reports whether the message was accepted for delivery (false if the
// sender is down, the pair is partitioned, or the connection is broken).
// A sender cannot see a crashed receiver: a send to one is accepted and
// dropped at delivery. Accepted messages are delivered in FIFO order per
// ordered pair.
func (n *Network) Send(src, dst NodeID, kind string, payload any, size int) bool {
	return n.Transmit(&Message{Src: src, Dst: dst, Kind: kind, Payload: payload, Size: size, Reliable: true})
}

// SendDatagram transmits a best-effort datagram subject to path loss.
// It reports whether the datagram was put on the wire (not whether it will
// arrive).
func (n *Network) SendDatagram(src, dst NodeID, kind string, payload any, size int) bool {
	return n.Transmit(&Message{Src: src, Dst: dst, Kind: kind, Payload: payload, Size: size})
}

// Transmit sends m over the reliable service if m.Reliable is set, as a
// datagram otherwise, and reports what Send or SendDatagram would. The
// caller allocates m; the network stamps an accepted m's Seq and SentAt
// and queues m itself as the event that delivers it, so m must not be
// sent again.
func (n *Network) Transmit(m *Message) bool {
	src, dst, size, reliable := m.Src, m.Dst, m.Size, m.Reliable
	n.stats.Sent++
	n.stats.Bytes += uint64(size)
	srcEp := n.lookup(src)
	if srcEp == nil || !srcEp.up {
		n.stats.Dropped++
		return false
	}
	if n.partitioned[pairKey{src, dst}] {
		n.stats.Dropped++
		return false
	}
	if reliable && n.ConnectionBroken(src, dst) {
		n.stats.Dropped++
		return false
	}
	q := n.top.Quality(src, dst)
	if !reliable && q.Loss > 0 && n.rng.Float64() < q.Loss {
		n.stats.Dropped++
		return true // on the wire, lost in flight
	}
	// Serialization occupies the channel; propagation overlaps with the
	// next message's serialization.
	var serialization time.Duration
	if q.BandwidthBps > 0 && size > 0 {
		serialization = time.Duration(float64(size) / q.BandwidthBps * float64(time.Second))
	}
	propagation := q.Latency
	if reliable && q.Loss > 0 && q.Loss < 1 {
		// Model retransmission: geometric number of attempts, each costing
		// one RTT-ish latency.
		for n.rng.Float64() < q.Loss {
			propagation += 2 * q.Latency
		}
	}
	// Shared uplink: the message first serializes through the sender's
	// upload queue (if capacitated), regardless of destination.
	ready := n.eng.Now()
	if upBps, capped := n.uploadBps[src]; capped && size > 0 {
		upStart := ready
		if prev := n.uploadBusy[src]; prev > upStart {
			upStart = prev
		}
		upEnd := upStart.Add(time.Duration(float64(size) / upBps * float64(time.Second)))
		n.uploadBusy[src] = upEnd
		ready = upEnd
	}
	var deliverAt sim.Time
	switch {
	case !reliable:
		deliverAt = ready.Add(serialization + propagation)
	case src == dst:
		// Nothing serializes or propagates on the self-path: the stream
		// stays in order if no send overtakes the previous one.
		deliverAt = max(ready, srcEp.selfHorizon)
		srcEp.selfHorizon = deliverAt
	default:
		ch := &n.channels[int(src)*n.top.Size()+int(dst)]
		// FIFO: wait for the previous transmission.
		txEnd := max(ready, ch.busyUntil).Add(serialization)
		ch.busyUntil = txEnd
		// Retransmission variance must not reorder the stream.
		deliverAt = max(txEnd.Add(propagation), ch.lastDeliver)
		ch.lastDeliver = deliverAt
	}
	n.seq++
	m.Seq, m.SentAt, m.net = n.seq, n.eng.Now(), n
	n.eng.Post(deliverAt, m)
	return true
}

func (n *Network) deliver(m *Message) {
	ep := n.lookup(m.Dst)
	if ep == nil || !ep.up || ep.handler == nil {
		n.stats.Dropped++
		return
	}
	if n.partitioned[pairKey{m.Src, m.Dst}] {
		n.stats.Dropped++
		return
	}
	if srcEp := n.lookup(m.Src); m.Reliable && (srcEp == nil || !srcEp.up) {
		// TCP-like: a crashed sender's in-flight stream is torn down.
		n.stats.Dropped++
		return
	}
	n.stats.Delivered++
	if n.Monitor != nil {
		n.Monitor(m)
	}
	ep.handler(m)
}
