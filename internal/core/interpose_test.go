package core

import (
	"strings"
	"testing"
	"time"

	"crystalchoice/internal/explore"
	"crystalchoice/internal/transport"
)

// valBound returns the steering property used by the interposition tests:
// no balSvc value may exceed 10.
func valBound() explore.Property {
	return explore.Property{
		Name: "val<=10",
		Check: func(w *explore.World) bool {
			for _, id := range w.Nodes() {
				if w.Service(id).(*balSvc).val > 10 {
					return false
				}
			}
			return true
		},
	}
}

// TestInjectRoutesThroughSteering pins the Inject bugfix: an injected
// client request predicted to violate a property must be steered away
// exactly like a network-delivered message — previously Inject called
// dispatchMessage directly and skipped the steering check entirely.
func TestInjectRoutesThroughSteering(t *testing.T) {
	cfg := Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 50 * time.Millisecond,
		Steering:           true,
		Properties:         []explore.Property{valBound()},
	}
	eng, cl := rig(t, 2, cfg)
	eng.RunFor(200 * time.Millisecond) // checkpoints propagate
	checks := cl.Stats().SteeringChecks

	// An injected "load 100" would push the node over the bound: the
	// steering check must inspect and drop it.
	cl.Node(1).Inject("load", 100, 8)
	eng.RunFor(100 * time.Millisecond)
	if got := cl.Node(1).Service().(*balSvc).val; got != 0 {
		t.Fatalf("violation-predicted injected request was delivered: val=%d", got)
	}
	if got := cl.Stats().Steered; got != 1 {
		t.Fatalf("Steered = %d, want 1", got)
	}
	if got := cl.Stats().SteeringChecks; got != checks+1 {
		t.Fatalf("SteeringChecks = %d, want %d", got, checks+1)
	}
	// Self-sourced: steering must not have broken the node's connection
	// to itself.
	if cl.Network().ConnectionBroken(1, 1) {
		t.Fatal("steering broke the self connection for an injected message")
	}

	// A benign injected request passes through.
	cl.Node(1).Inject("load", 3, 8)
	eng.RunFor(100 * time.Millisecond)
	if got := cl.Node(1).Service().(*balSvc).val; got != 3 {
		t.Fatalf("benign injected request blocked: val=%d", got)
	}
}

// TestSpuriousRestartKeepsCheckpointTrafficFlat pins the Restart bugfix:
// restarting a live node used to re-run start() without cancelling the
// existing ckptTimer, leaking a second checkpoint loop that doubled
// cb.ckpt.* traffic forever. A spurious Restart must be a no-op.
func TestSpuriousRestartKeepsCheckpointTrafficFlat(t *testing.T) {
	eng, cl := rig(t, 3, Config{
		NewResolver:        func(*Node) Resolver { return First{} },
		CheckpointInterval: 100 * time.Millisecond,
	})
	var ckptMsgs int
	cl.Network().Monitor = func(m *transport.Message) {
		if strings.HasPrefix(m.Kind, "cb.ckpt.") {
			ckptMsgs++
		}
	}
	cl.Node(1).Service().(*balSvc).val = 7

	eng.RunFor(2 * time.Second)
	window1 := ckptMsgs
	if window1 == 0 {
		t.Fatal("no checkpoint traffic in the baseline window")
	}

	before := cl.Node(1).ckptTimer
	cl.Restart(1, &balSvc{id: 1}) // spurious: node 1 is live
	if cl.Node(1).ckptTimer != before {
		t.Fatal("spurious Restart replaced the live checkpoint timer")
	}
	if got := cl.Node(1).Service().(*balSvc).val; got != 7 {
		t.Fatalf("spurious Restart replaced live service state: val=%d, want 7", got)
	}

	ckptMsgs = 0
	eng.RunFor(2 * time.Second)
	window2 := ckptMsgs
	// A leaked duplicate loop would roughly double the second window.
	// Jitter (±10% per period) bounds honest variation well below 1.5x.
	if window2 > window1*3/2 {
		t.Fatalf("checkpoint traffic grew after spurious Restart: %d -> %d messages per window", window1, window2)
	}
}

// TestAsyncPredictionDroppedAcrossRestart pins the resolveAsync bugfix: a
// background prediction scheduled before a crash+Restart is keyed by the
// pre-restart state digest and must not complete into the post-restart
// decision cache. The down check alone cannot catch this — after the
// Restart the node is live again.
func TestAsyncPredictionDroppedAcrossRestart(t *testing.T) {
	pr := NewPredictive(2)
	pr.OffCriticalPath = true
	pr.PredictionLatency = 50 * time.Millisecond
	cfg := Config{
		NewResolver:        func(*Node) Resolver { return pr },
		CheckpointInterval: 50 * time.Millisecond,
		ObjectiveFor: func(n *Node) explore.Objective {
			// Discriminating objective so the prediction is decisive and
			// would be cached if it (incorrectly) completed.
			return explore.ObjectiveFunc{ObjectiveName: "balance", Fn: func(w *explore.World) float64 {
				worst := 0
				for _, id := range w.Nodes() {
					if v := w.Service(id).(*balSvc).val; v > worst {
						worst = v
					}
				}
				return -float64(worst)
			}}
		},
	}
	eng, cl := rig(t, 3, cfg)
	cl.Node(1).Service().(*balSvc).val = 100 // make candidate scores differ
	eng.RunFor(300 * time.Millisecond)       // checkpoints propagate

	// Trigger the choice: the handler answers fast and schedules the full
	// prediction 50ms out.
	inject(cl, 0, "work", 1)
	eng.RunFor(10 * time.Millisecond)
	// Crash and restart node 0 before the prediction completes.
	cl.Crash(0)
	cl.Restart(0, nil)
	eng.RunFor(time.Second)

	if got := cl.Node(0).Stats().AsyncPredictions; got != 0 {
		t.Fatalf("stale async prediction completed across a restart: AsyncPredictions = %d", got)
	}
	if got := len(cl.Node(0).decisionCache); got != 0 {
		t.Fatalf("pre-restart prediction leaked into the post-restart decision cache: %d entries", got)
	}
}

// TestRestartOfUnknownNodeIsNoop guards the nil branch next to the new
// down guard.
func TestRestartOfUnknownNodeIsNoop(t *testing.T) {
	_, cl := rig(t, 2, Config{NewResolver: func(*Node) Resolver { return First{} }})
	cl.Restart(99, nil) // must not panic
}

// TestDecisionLatencyInstrumentation checks the Stats histograms: one
// SteerLatency sample per steering check, ResolveLatency samples and
// cache-miss counting on the predictive path, and dropped-window
// accounting against Config.DecisionSlot.
func TestDecisionLatencyInstrumentation(t *testing.T) {
	cfg := Config{
		NewResolver:        func(*Node) Resolver { return NewPredictive(2) },
		CheckpointInterval: 50 * time.Millisecond,
		Steering:           true,
		Properties:         []explore.Property{valBound()},
		DecisionSlot:       time.Nanosecond, // every real decision overruns
		ObjectiveFor: func(n *Node) explore.Objective {
			return explore.ObjectiveFunc{ObjectiveName: "balance", Fn: func(w *explore.World) float64 {
				worst := 0
				for _, id := range w.Nodes() {
					if v := w.Service(id).(*balSvc).val; v > worst {
						worst = v
					}
				}
				return -float64(worst)
			}}
		},
	}
	eng, cl := rig(t, 3, cfg)
	cl.Node(1).Service().(*balSvc).val = 5
	eng.RunFor(300 * time.Millisecond)
	inject(cl, 0, "work", 1)
	eng.RunFor(100 * time.Millisecond)

	s := cl.Stats()
	if s.SteeringChecks == 0 || s.SteerLatency.N() != s.SteeringChecks {
		t.Fatalf("SteerLatency samples = %d, want one per steering check (%d)", s.SteerLatency.N(), s.SteeringChecks)
	}
	if s.ResolveLatency.N() == 0 {
		t.Fatal("predictive resolution recorded no ResolveLatency samples")
	}
	if s.CacheMisses == 0 {
		t.Fatal("cold decision cache recorded no misses")
	}
	if s.DroppedWindows == 0 {
		t.Fatal("1ns DecisionSlot dropped no windows")
	}
	if s.SteerLatency.Percentile(99) < s.SteerLatency.Percentile(50) {
		t.Fatal("histogram percentiles not monotone")
	}
	if s.SteerLatency.Max() <= 0 {
		t.Fatal("histogram max not tracked")
	}
}

// TestTopologyEventsInvalidateCaches pins the cache-invalidation
// contract for every topology event: crash, restart, partition, heal,
// and group heal must each bump the cluster's topology epoch, and the
// next syncCaches must flush both the per-digest decision cache (the
// partition-path fix — Restart already flushed it, Partition/Heal did
// not) and the class-verdict maps, counting the dropped class verdicts.
func TestTopologyEventsInvalidateCaches(t *testing.T) {
	cfg := Config{
		NewResolver:         func(*Node) Resolver { return First{} },
		LookaheadClassCache: true,
	}
	_, cl := rig(t, 3, cfg)
	n := cl.Node(0)

	seed := func() {
		n.decisionCache = map[uint64]int{42: 1}
		n.classSteer = map[uint64]bool{7: true}
		n.classChoice = map[uint64]classVerdict{9: {idx: 0, n: 2}}
		n.cacheEpoch = cl.topoEpoch
	}
	check := func(event string, fire func()) {
		seed()
		before, inv := cl.topoEpoch, n.stats.ClassInvalidations
		fire()
		if cl.topoEpoch == before {
			t.Fatalf("%s did not bump the topology epoch", event)
		}
		n.syncCaches()
		if len(n.decisionCache) != 0 {
			t.Fatalf("%s left %d per-digest decisions cached", event, len(n.decisionCache))
		}
		if n.classSteer != nil || n.classChoice != nil {
			t.Fatalf("%s left class verdicts cached", event)
		}
		if got := n.stats.ClassInvalidations; got != inv+2 {
			t.Fatalf("%s: ClassInvalidations = %d, want %d", event, got, inv+2)
		}
		// A second sync without a new event must be free.
		n.decisionCache[42] = 1
		n.syncCaches()
		if len(n.decisionCache) != 1 {
			t.Fatalf("%s: syncCaches flushed without a new topology event", event)
		}
	}

	check("Partition", func() {
		cl.Network().Partition([]NodeID{0}, []NodeID{1, 2})
	})
	check("Heal", func() { cl.Network().Heal() })
	check("HealGroups", func() {
		cl.Network().HealGroups([]NodeID{0}, []NodeID{1, 2})
	})
	check("Crash", func() { cl.Crash(2) })
	check("Restart", func() { cl.Restart(2, &balSvc{id: 2}) })
}

// TestClassCacheSteeringVerdicts drives the class-keyed steering path
// end to end: the first violation-predicting check pays both lookaheads
// and records the verdict, the second answers from the class cache (the
// per-digest cache cannot hit — the injected values differ, so the state
// digests differ), and a partition in between forces the full price
// again. Steering behavior itself must be identical throughout.
func TestClassCacheSteeringVerdicts(t *testing.T) {
	cfg := Config{
		NewResolver:         func(*Node) Resolver { return First{} },
		CheckpointInterval:  50 * time.Millisecond,
		Steering:            true,
		Properties:          []explore.Property{valBound()},
		LookaheadClassCache: true,
	}
	eng, cl := rig(t, 2, cfg)
	eng.RunFor(200 * time.Millisecond)

	violating := func(val int) {
		before := cl.Stats().Steered
		cl.Node(1).Inject("load", val, 8)
		eng.RunFor(100 * time.Millisecond)
		if got := cl.Node(1).Service().(*balSvc).val; got != 0 {
			t.Fatalf("violating load %d delivered: val=%d", val, got)
		}
		if got := cl.Stats().Steered; got != before+1 {
			t.Fatalf("load %d: Steered = %d, want %d", val, got, before+1)
		}
	}

	violating(100) // cold: records the class verdict
	if s := cl.Stats(); s.ClassCacheMisses == 0 {
		t.Fatalf("cold steering check missed no class verdicts: %+v", s.ClassCacheMisses)
	}
	hits := cl.Stats().ClassCacheHits
	violating(101) // same violation class, new state digest
	if got := cl.Stats().ClassCacheHits; got <= hits {
		t.Fatalf("warm steering check did not hit the class cache: hits %d -> %d", hits, got)
	}

	// A partition event must force the next check back to the full price.
	cl.Network().Partition([]NodeID{0}, []NodeID{1})
	cl.Network().Heal()
	misses := cl.Stats().ClassCacheMisses
	violating(102)
	if got := cl.Stats().ClassCacheMisses; got <= misses {
		t.Fatalf("steering check after partition answered from a stale class cache: misses %d -> %d", misses, got)
	}
}

// TestClassCacheResolveScenarioHit pins the resolution half: a decisive
// prediction's winner is cached under the scenario key (choice name,
// arity, event kind — no state digest), so a later resolution of the
// same scenario from a different state answers from the class cache
// while the per-digest cache misses.
func TestClassCacheResolveScenarioHit(t *testing.T) {
	cfg := Config{
		NewResolver:         func(*Node) Resolver { return NewPredictive(2) },
		CheckpointInterval:  50 * time.Millisecond,
		LookaheadClassCache: true,
		ObjectiveFor: func(n *Node) explore.Objective {
			return explore.ObjectiveFunc{ObjectiveName: "balance", Fn: func(w *explore.World) float64 {
				worst := 0
				for _, id := range w.Nodes() {
					if v := w.Service(id).(*balSvc).val; v > worst {
						worst = v
					}
				}
				return -float64(worst)
			}}
		},
	}
	eng, cl := rig(t, 3, cfg)
	cl.Node(1).Service().(*balSvc).val = 5 // discriminate the candidates
	eng.RunFor(300 * time.Millisecond)

	inject(cl, 0, "work", 1)
	eng.RunFor(100 * time.Millisecond)
	s := cl.Stats()
	if s.Predictions == 0 {
		t.Fatal("no prediction ran")
	}
	if s.ClassCacheHits != 0 {
		t.Fatalf("cold resolution hit the class cache: %d", s.ClassCacheHits)
	}

	// Perturb state so the per-digest cache cannot answer — new digest,
	// same scenario. Only the class cache can short-circuit this one.
	cl.Node(0).Service().(*balSvc).val = 1
	cl.Node(2).Service().(*balSvc).val = 2
	eng.RunFor(200 * time.Millisecond) // checkpoints carry the change
	inject(cl, 0, "work", 2)
	eng.RunFor(100 * time.Millisecond)
	after := cl.Stats()
	if after.CacheHits != s.CacheHits {
		t.Fatalf("per-digest cache hit across a state change: %d -> %d", s.CacheHits, after.CacheHits)
	}
	if after.ClassCacheHits == 0 {
		t.Fatal("warm resolution of the same scenario did not hit the class cache")
	}
	if after.Predictions != s.Predictions {
		t.Fatalf("class-cache hit still paid a full prediction: %d -> %d", s.Predictions, after.Predictions)
	}
}

// TestClassCacheRunTwiceDigest pins determinism: two identical runs with
// the class cache enabled — steering, predictive resolution, and a
// partition/heal window in the middle — must materialize byte-identical
// worlds and identical decision counters.
func TestClassCacheRunTwiceDigest(t *testing.T) {
	run := func() (uint64, Stats) {
		pr := NewPredictive(2)
		cfg := Config{
			NewResolver:         func(*Node) Resolver { return pr },
			CheckpointInterval:  50 * time.Millisecond,
			Steering:            true,
			Properties:          []explore.Property{valBound()},
			LookaheadClassCache: true,
		}
		eng, cl := rig(t, 3, cfg)
		eng.RunFor(200 * time.Millisecond)
		cl.Node(1).Inject("load", 100, 8) // steered
		eng.RunFor(100 * time.Millisecond)
		cl.Network().Partition([]NodeID{0}, []NodeID{1, 2})
		eng.RunFor(100 * time.Millisecond)
		cl.Network().Heal()
		cl.Node(1).Inject("load", 100, 8) // steered again, cold cache
		inject(cl, 0, "work", 1)
		eng.RunFor(300 * time.Millisecond)
		w := cl.MaterializeWorld(explore.FirstPolicy, 1, []string{"emit"})
		s := cl.Stats()
		s.SteerLatency, s.ResolveLatency = LatencyHist{}, LatencyHist{}
		return w.DigestFull(), s
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 {
		t.Fatalf("run-twice digests differ: %#x vs %#x", d1, d2)
	}
	if s1 != s2 {
		t.Fatalf("run-twice stats differ:\n%+v\n%+v", s1, s2)
	}
}

// TestLatencyHistBasics unit-tests the histogram arithmetic: bucketing,
// percentile bounds, merge, and the warmup-discarding Delta.
func TestLatencyHistBasics(t *testing.T) {
	var h LatencyHist
	for _, d := range []time.Duration{100, 200, 400, 800, 100 * time.Microsecond} {
		h.Observe(d)
	}
	if h.N() != 5 {
		t.Fatalf("N = %d, want 5", h.N())
	}
	if h.Max() != 100*time.Microsecond {
		t.Fatalf("Max = %v", h.Max())
	}
	// p50 must land in the bucket of the 3rd sample (400ns): upper bound
	// 511ns. The log-scale guarantee is "exact to within 2x".
	if p := h.Percentile(50); p < 400 || p > 511 {
		t.Fatalf("p50 = %v, want within [400ns, 511ns]", p)
	}
	if p := h.Percentile(100); p != 100*time.Microsecond {
		t.Fatalf("p100 = %v, want exact max", p)
	}
	if h.Percentile(0) > h.Percentile(99) {
		t.Fatal("percentiles not monotone")
	}

	// Merge through Stats.add.
	a := Stats{}
	a.SteerLatency.Observe(time.Millisecond)
	b := Stats{}
	b.SteerLatency.Observe(time.Second)
	a.add(b)
	if a.SteerLatency.N() != 2 || a.SteerLatency.Max() != time.Second {
		t.Fatalf("merged histogram wrong: n=%d max=%v", a.SteerLatency.N(), a.SteerLatency.Max())
	}

	// Delta discards a warmup prefix.
	var grow LatencyHist
	grow.Observe(time.Microsecond)
	snap := grow
	grow.Observe(time.Millisecond)
	grow.Observe(2 * time.Millisecond)
	d := grow.Delta(snap)
	if d.N() != 2 {
		t.Fatalf("Delta N = %d, want 2", d.N())
	}
	if d.Percentile(50) < time.Millisecond/2 {
		t.Fatalf("Delta p50 = %v, warmup sample not discarded", d.Percentile(50))
	}

	// Zero-duration observations land in bucket 0 and keep p-values 0.
	var z LatencyHist
	z.Observe(0)
	z.Observe(-time.Second)
	if z.N() != 2 || z.Percentile(99) != 0 {
		t.Fatalf("zero handling: n=%d p99=%v", z.N(), z.Percentile(99))
	}
}
