package transport

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"crystalchoice/internal/netmodel"
	"crystalchoice/internal/sim"
)

func newNet(n int, lat time.Duration) (*sim.Engine, *Network) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(n, lat, 0, 0)
	return eng, New(eng, top)
}

func TestReliableDelivery(t *testing.T) {
	eng, nw := newNet(2, 10*time.Millisecond)
	var got *Message
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { got = m })
	if !nw.Send(0, 1, "ping", 42, 100) {
		t.Fatal("Send rejected")
	}
	eng.Drain(0)
	if got == nil || got.Kind != "ping" || got.Payload.(int) != 42 {
		t.Fatalf("delivery failed: %+v", got)
	}
	if eng.Now() != sim.Time(10*time.Millisecond) {
		t.Fatalf("delivered at %v, want 10ms", eng.Now())
	}
}

func TestFIFOPerPair(t *testing.T) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(2, 10*time.Millisecond, 0, 0)
	// Jittered path: make the second message nominally faster by lowering
	// latency between sends — FIFO must still hold.
	nw := New(eng, top)
	var got []int
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { got = append(got, m.Payload.(int)) })
	nw.Send(0, 1, "m", 1, 0)
	top.SetQuality(0, 1, netmodel.LinkQuality{Latency: time.Millisecond})
	nw.Send(0, 1, "m", 2, 0)
	eng.Drain(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("reliable channel reordered: %v", got)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(2, 0, 1000, 0) // 1000 B/s, zero latency
	nw := New(eng, top)
	var times []sim.Time
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { times = append(times, eng.Now()) })
	nw.Send(0, 1, "blk", nil, 500) // 500ms
	nw.Send(0, 1, "blk", nil, 500) // queued behind: 1000ms
	eng.Drain(0)
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[0] != sim.Time(500*time.Millisecond) || times[1] != sim.Time(time.Second) {
		t.Fatalf("serialization times = %v", times)
	}
}

func TestDatagramLoss(t *testing.T) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(2, time.Millisecond, 0, 0.5)
	nw := New(eng, top)
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	const sent = 2000
	for i := 0; i < sent; i++ {
		nw.SendDatagram(0, 1, "d", nil, 0)
	}
	eng.Drain(0)
	if delivered < sent/3 || delivered > 2*sent/3 {
		t.Fatalf("50%% loss delivered %d/%d", delivered, sent)
	}
}

func TestReliableLossInflatesLatencyNotDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(2, 10*time.Millisecond, 0, 0.3)
	nw := New(eng, top)
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	for i := 0; i < 200; i++ {
		nw.Send(0, 1, "r", nil, 0)
	}
	eng.Drain(0)
	if delivered != 200 {
		t.Fatalf("reliable channel dropped: %d/200", delivered)
	}
	// With 30% loss the total time must exceed the loss-free bound.
	if eng.Now() <= sim.Time(10*time.Millisecond) {
		t.Fatalf("no retransmission cost observed: %v", eng.Now())
	}
}

func TestCrashDropsTraffic(t *testing.T) {
	eng, nw := newNet(2, time.Millisecond)
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	nw.Crash(1)
	nw.Send(0, 1, "x", nil, 0)
	eng.Drain(0)
	if delivered != 0 {
		t.Fatal("message delivered to crashed node")
	}
	nw.Restart(1)
	nw.Send(0, 1, "x", nil, 0)
	eng.Drain(0)
	if delivered != 1 {
		t.Fatal("message not delivered after restart")
	}
}

// A real sender cannot see that its receiver crashed: Send accepts the
// message, and the network drops it at delivery and counts the drop.
func TestSendToCrashedReceiverAcceptedThenDropped(t *testing.T) {
	eng, nw := newNet(2, time.Millisecond)
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	nw.Crash(1)
	if !nw.Send(0, 1, "x", nil, 0) {
		t.Fatal("Send to a crashed receiver rejected: the sender cannot know it is down")
	}
	if st := nw.Stats(); st.Dropped != 0 {
		t.Fatalf("dropped %d before delivery, want 0", st.Dropped)
	}
	eng.Drain(0)
	if st := nw.Stats(); delivered != 0 || st.Delivered != 0 || st.Dropped != 1 {
		t.Fatalf("delivered %d (Stats.Delivered %d), Stats.Dropped %d: want the message dropped at delivery and counted", delivered, st.Delivered, st.Dropped)
	}
}

func TestCrashedSenderCannotSend(t *testing.T) {
	eng, nw := newNet(2, time.Millisecond)
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	nw.Crash(0)
	if nw.Send(0, 1, "x", nil, 0) {
		t.Fatal("crashed sender's Send accepted")
	}
	eng.Drain(0)
	if delivered != 0 {
		t.Fatal("message from crashed node delivered")
	}
}

func TestInFlightFromCrashedSenderTornDown(t *testing.T) {
	eng, nw := newNet(2, 10*time.Millisecond)
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	nw.Send(0, 1, "x", nil, 0)
	nw.Crash(0) // crash before delivery
	eng.Drain(0)
	if delivered != 0 {
		t.Fatal("reliable in-flight message survived sender crash")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	eng, nw := newNet(4, time.Millisecond)
	delivered := 0
	for i := 0; i < 4; i++ {
		nw.Attach(NodeID(i), func(m *Message) { delivered++ })
	}
	nw.Partition([]NodeID{0, 1}, []NodeID{2, 3})
	if nw.Send(0, 2, "x", nil, 0) {
		t.Fatal("send across partition accepted")
	}
	if !nw.Send(0, 1, "x", nil, 0) {
		t.Fatal("send within partition side rejected")
	}
	eng.Drain(0)
	if delivered != 1 {
		t.Fatalf("delivered = %d", delivered)
	}
	nw.Heal()
	if !nw.Send(0, 2, "x", nil, 0) {
		t.Fatal("send after heal rejected")
	}
	eng.Drain(0)
	if delivered != 2 {
		t.Fatal("post-heal message lost")
	}
}

func TestBreakConnection(t *testing.T) {
	eng, nw := newNet(2, time.Millisecond)
	var downAt0, downAt1 []NodeID
	delivered := 0
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { delivered++ })
	nw.SetConnListener(0, func(p NodeID) { downAt0 = append(downAt0, p) })
	nw.SetConnListener(1, func(p NodeID) { downAt1 = append(downAt1, p) })
	nw.BreakConnection(0, 1)
	if nw.Send(0, 1, "x", nil, 0) {
		t.Fatal("send over broken connection accepted")
	}
	// Datagrams are connectionless and unaffected.
	if !nw.SendDatagram(0, 1, "d", nil, 0) {
		t.Fatal("datagram rejected by broken connection")
	}
	eng.Drain(0)
	if len(downAt0) != 1 || downAt0[0] != 1 || len(downAt1) != 1 || downAt1[0] != 0 {
		t.Fatalf("connection listeners: %v %v", downAt0, downAt1)
	}
	// After ReconnectDelay the channel heals.
	eng.RunFor(2 * time.Second)
	if !nw.Send(0, 1, "x", nil, 0) {
		t.Fatal("connection did not heal after ReconnectDelay")
	}
}

func TestStats(t *testing.T) {
	eng, nw := newNet(2, time.Millisecond)
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) {})
	nw.Send(0, 1, "a", nil, 10)
	nw.Send(0, 1, "b", nil, 20)
	eng.Drain(0)
	s := nw.Stats()
	if s.Sent != 2 || s.Delivered != 2 || s.Bytes != 30 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSelfSend(t *testing.T) {
	eng, nw := newNet(2, 25*time.Millisecond)
	delivered := false
	nw.Attach(0, func(m *Message) { delivered = true })
	nw.Send(0, 0, "self", nil, 0)
	eng.Drain(0)
	if !delivered {
		t.Fatal("self-send not delivered")
	}
	if eng.Now() != 0 {
		t.Fatalf("self-send should be immediate, took %v", eng.Now())
	}
}

// Property: per ordered pair, reliable delivery order always equals send
// order, for arbitrary message size patterns — on the pairs to and from
// the highest node ID, whose channels sit at the ends of the table.
func TestReliableFIFOProperty(t *testing.T) {
	f := func(sizes []uint8, seed int64) bool {
		eng := sim.NewEngine(seed)
		top := netmodel.Uniform(4, 5*time.Millisecond, 100, 0.1)
		nw := New(eng, top)
		last := NodeID(top.Size() - 1)
		got := map[NodeID][]int{}
		for id := NodeID(0); id <= last; id++ {
			nw.Attach(id, func(m *Message) { got[m.Src] = append(got[m.Src], m.Payload.(int)) })
		}
		for i, s := range sizes {
			nw.Send(0, last, "m", i, int(s))
			nw.Send(last, 0, "m", i, int(s)/2)
		}
		eng.Drain(0)
		for _, src := range []NodeID{0, last} {
			if len(got[src]) != len(sizes) {
				return false
			}
			for i, p := range got[src] {
				if p != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: reliable self-sends stay in order under an upload cap, which
// holds back a sized message but not an empty one, nor any message sent
// after the cap is lifted.
func TestSelfSendFIFOUnderUploadCap(t *testing.T) {
	f := func(sizes []uint8, liftAt uint8) bool {
		eng := sim.NewEngine(1)
		nw := New(eng, netmodel.Uniform(2, 5*time.Millisecond, 1000, 0))
		var got []int
		nw.Attach(0, func(m *Message) {})
		nw.Attach(1, func(m *Message) { got = append(got, m.Payload.(int)) })
		nw.SetUploadCapacity(1, 1000)
		for i, s := range sizes {
			if i == int(liftAt) {
				nw.SetUploadCapacity(1, 0)
			}
			size := int(s)
			if size%4 == 0 {
				size = 0
			}
			nw.Send(1, 1, "self", i, size)
			nw.Send(1, 0, "other", nil, size) // shares the uplink
		}
		eng.Drain(0)
		if len(got) != len(sizes) {
			return false
		}
		for i := range got {
			if got[i] != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A node outside the topology can still send to itself: the self-path
// needs no link, so it is delivered at once — or once the node's uplink
// has serialized it — and in order.
func TestSelfSendOutsideTopology(t *testing.T) {
	eng, nw := newNet(2, 25*time.Millisecond)
	const id = NodeID(7)
	var got []string
	var at []sim.Time
	nw.Attach(id, func(m *Message) {
		got = append(got, m.Kind)
		at = append(at, eng.Now())
	})
	if !nw.Send(id, id, "a", nil, 0) || !nw.SendDatagram(id, id, "b", nil, 0) {
		t.Fatal("self-send outside the topology rejected")
	}
	nw.SetUploadCapacity(id, 1000)
	nw.Send(id, id, "c", nil, 500)
	nw.Send(id, id, "d", nil, 0)
	eng.Drain(0)
	half := sim.Time(500 * time.Millisecond)
	if !slices.Equal(got, []string{"a", "b", "c", "d"}) || !slices.Equal(at, []sim.Time{0, 0, half, half}) {
		t.Fatalf("deliveries %v at %v, want [a b c d] at [0 0 500ms 500ms]", got, at)
	}
	if s := nw.Stats(); s.Sent != 4 || s.Delivered != 4 || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// A transmitted message is the event that delivers it: the handler gets
// the caller's record, stamped with its sequence number and its send
// instant — before the uplink wait, not after.
func TestTransmitDeliversTheRecord(t *testing.T) {
	eng, nw := newNet(2, 10*time.Millisecond)
	var got []*Message
	var at []sim.Time
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { got, at = append(got, m), append(at, eng.Now()) })
	nw.SetUploadCapacity(0, 1000)
	sent := []*Message{
		{Src: 0, Dst: 1, Kind: "a", Size: 500, Reliable: true},
		{Src: 0, Dst: 1, Kind: "b", Size: 500},
	}
	for _, m := range sent {
		if !nw.Transmit(m) {
			t.Fatalf("Transmit(%v) rejected", m)
		}
	}
	eng.Drain(0)
	ms := sim.Time(time.Millisecond)
	if len(got) != 2 || got[0] != sent[0] || got[1] != sent[1] {
		t.Fatalf("delivered %v, want the transmitted records %v", got, sent)
	}
	if !slices.Equal(at, []sim.Time{510 * ms, 1010 * ms}) {
		t.Fatalf("delivered at %v, want [510ms 1.01s]", at)
	}
	for i, m := range got {
		if m.Seq != uint64(i+1) || m.SentAt != 0 {
			t.Fatalf("%s: seq %d sent at %v, want seq %d sent at 0", m.Kind, m.Seq, m.SentAt, i+1)
		}
	}
}

func BenchmarkReliableSend(b *testing.B) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(16, time.Millisecond, 1e6, 0)
	nw := New(eng, top)
	for i := 0; i < 16; i++ {
		nw.Attach(NodeID(i), func(m *Message) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(NodeID(i%16), NodeID((i+1)%16), "bench", nil, 64)
		if i%64 == 0 {
			eng.Drain(0)
		}
	}
	eng.Drain(0)
}

func TestUploadCapacitySharedAcrossDestinations(t *testing.T) {
	eng := sim.NewEngine(1)
	top := netmodel.Uniform(3, 0, 0, 0) // no path constraints
	nw := New(eng, top)
	var times []sim.Time
	for i := 0; i < 3; i++ {
		nw.Attach(NodeID(i), func(m *Message) { times = append(times, eng.Now()) })
	}
	nw.SetUploadCapacity(0, 1000) // 1000 B/s uplink at node 0
	nw.Send(0, 1, "a", nil, 500)  // occupies uplink until 500ms
	nw.Send(0, 2, "b", nil, 500)  // different destination: queues behind
	eng.Drain(0)
	if len(times) != 2 {
		t.Fatalf("deliveries = %d", len(times))
	}
	if times[0] != sim.Time(500*time.Millisecond) || times[1] != sim.Time(time.Second) {
		t.Fatalf("shared uplink not serialized: %v", times)
	}
}

func TestUploadCapacityRemovable(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, netmodel.Uniform(2, 0, 0, 0))
	var last sim.Time
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { last = eng.Now() })
	nw.SetUploadCapacity(0, 1000)
	nw.SetUploadCapacity(0, 0) // removed
	nw.Send(0, 1, "a", nil, 5000)
	eng.Drain(0)
	if last != 0 {
		t.Fatalf("removed uplink still throttling: %v", last)
	}
}

func TestUploadCapacityOnlyAffectsCappedNode(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, netmodel.Uniform(3, 0, 0, 0))
	var at1 sim.Time = -1
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) {})
	nw.Attach(2, func(m *Message) { at1 = eng.Now() })
	nw.SetUploadCapacity(0, 1)
	nw.Send(1, 2, "x", nil, 1<<20) // uncapped sender, free path
	eng.Drain(0)
	if at1 != 0 {
		t.Fatalf("uncapped sender throttled: %v", at1)
	}
}

func TestUploadCapacityAppliesToDatagrams(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := New(eng, netmodel.Uniform(2, 0, 0, 0))
	var at sim.Time = -1
	nw.Attach(0, func(m *Message) {})
	nw.Attach(1, func(m *Message) { at = eng.Now() })
	nw.SetUploadCapacity(0, 1000)
	nw.SendDatagram(0, 1, "d", nil, 500)
	eng.Drain(0)
	if at != sim.Time(500*time.Millisecond) {
		t.Fatalf("datagram skipped the uplink queue: %v", at)
	}
}

func TestPartitionsAccessor(t *testing.T) {
	_, n := newNet(4, time.Millisecond)
	if len(n.Partitions()) != 0 {
		t.Fatal("fresh network reports partitions")
	}
	n.Partition([]NodeID{0, 1}, []NodeID{2})
	got := n.Partitions()
	if len(got) != 2 {
		t.Fatalf("Partitions() = %v, want 2 unordered pairs", got)
	}
	for _, p := range got {
		if p[0] > p[1] {
			t.Fatalf("pair %v not normalized", p)
		}
		if !((p[0] == 0 && p[1] == 2) || (p[0] == 1 && p[1] == 2)) {
			t.Fatalf("unexpected pair %v", p)
		}
	}
	n.Heal()
	if len(n.Partitions()) != 0 {
		t.Fatal("partitions survived Heal")
	}
}
