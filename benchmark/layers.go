package main

import (
	"fmt"
	"path/filepath"
)

// metricDef declares one reported metric as BENCHMARK.json lists it.
// Bound is the share of the parent's median by which an end-to-end metric
// may get worse; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics a user of the system would see, on every
// workload. README.md says what "op" and "event" mean for each workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"event_p50_us", "us", "lower", 0.25},
	{"event_tail_us", "us", "lower", 0.25},
	{"cpu_us_per_event", "us", "lower", 0.25},
	{"age_slope", "ratio", "lower", 0.25},
	{"commit_p50_delays", "delays", "lower", 0.15},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the single-layer metrics of the traced run, layer =
// module. _p50 is the median over probes, _last the value at the final
// probe, so aging within a rep shows as _last/_p50.
var perLayerDefs = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower"},
	{Name: "sim.plain_event_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim.slot_miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "transport.sent", Unit: "count", Better: "lower"},
	{Name: "transport.delivered", Unit: "count", Better: "lower"},
	{Name: "transport.dropped", Unit: "count", Better: "lower"},
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "checkpoint.integrated", Unit: "count", Better: "lower"},
	{Name: "checkpoint.event_p50_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.time_share", Unit: "ratio", Better: "lower"},
	{Name: "checkpoint.snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "apps.clone_us_p50", Unit: "us", Better: "lower"},
	{Name: "apps.clone_us_last", Unit: "us", Better: "lower"},
	{Name: "apps.digest_us_p50", Unit: "us", Better: "lower"},
	{Name: "apps.digest_us_last", Unit: "us", Better: "lower"},
	{Name: "apps.commit_p50_vms", Unit: "vms", Better: "lower"},
	{Name: "apps.commit_mean_vms", Unit: "vms", Better: "lower"},
	{Name: "apps.commit_p99_vms", Unit: "vms", Better: "lower"},
	{Name: "model.buildworld_us_p50", Unit: "us", Better: "lower"},
	{Name: "model.buildworld_us_last", Unit: "us", Better: "lower"},
	{Name: "model.known_peers", Unit: "count", Better: "higher"},
	{Name: "explore.prime_us_p50", Unit: "us", Better: "lower"},
	{Name: "explore.prime_us_last", Unit: "us", Better: "lower"},
	{Name: "explore.fork_us_p50", Unit: "us", Better: "lower"},
	{Name: "explore.lookahead_us_p50", Unit: "us", Better: "lower"},
	{Name: "explore.lookahead_us_p99", Unit: "us", Better: "lower"},
	{Name: "explore.lookahead_states_p50", Unit: "count", Better: "lower"},
	{Name: "explore.ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "explore.classes_us_p50", Unit: "us", Better: "lower"},
	{Name: "explore.digestfull_us_p50", Unit: "us", Better: "lower"},
	{Name: "explore.states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "explore.states_per_s_w1", Unit: "1/s", Better: "higher"},
	{Name: "explore.elapsed_s", Unit: "s", Better: "lower"},
	{Name: "explore.max_depth", Unit: "count", Better: "higher"},
	{Name: "explore.max_depth_w1", Unit: "count", Better: "higher"},
	{Name: "explore.worker_high_water", Unit: "count", Better: "lower"},
	{Name: "explore.steal_misses", Unit: "count", Better: "lower"},
	{Name: "explore.mallocs_per_state", Unit: "count", Better: "lower"},
	{Name: "explore.violation_classes", Unit: "count", Better: "higher"},
	{Name: "core.steer_checks", Unit: "count", Better: "lower"},
	{Name: "core.steered", Unit: "count", Better: "lower"},
	{Name: "core.lookahead_states", Unit: "count", Better: "lower"},
	{Name: "core.states_per_check", Unit: "count", Better: "lower"},
	{Name: "core.choices", Unit: "count", Better: "lower"},
	{Name: "core.predictions", Unit: "count", Better: "lower"},
	{Name: "core.async_predictions", Unit: "count", Better: "lower"},
	{Name: "core.cache_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.class_hit_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.class_invalidations", Unit: "count", Better: "lower"},
	{Name: "core.dropped_windows", Unit: "count", Better: "lower"},
	{Name: "core.steer_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.steer_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.resolve_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.resolve_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.decision_event_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.decision_event_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.decision_time_share", Unit: "ratio", Better: "lower"},
	{Name: "core.inject_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.inject_p99_us", Unit: "us", Better: "lower"},
	{Name: "core.materialize_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.materialize_us_last", Unit: "us", Better: "lower"},
	{Name: "failure.events", Unit: "count", Better: "lower"},
	{Name: "failure.max_commit_gap_vms", Unit: "vms", Better: "lower"},
	{Name: "mem.alloc_kb_per_event", Unit: "kB", Better: "lower"},
	{Name: "mem.mallocs_per_event", Unit: "count", Better: "lower"},
	{Name: "mem.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "mem.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.probes", Unit: "count", Better: "higher"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
}

// last returns the final element of xs, 0 when empty.
func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// setter returns a function that stores a declared metric in out with its
// declared unit; storing an undeclared one is a bug.
func setter(defs []metricDef, out map[string]metric) func(name string, v float64) {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.Name] = d.Unit
	}
	return func(name string, v float64) {
		unit, ok := units[name]
		if !ok {
			panic("benchmark: undeclared metric " + name)
		}
		out[name] = metric{v, unit}
	}
}

// perLayer fills every per-layer metric (0 where a layer is idle on the
// workload) from a traced run: reps[0] is the untraced reference, the
// rest are traced. Counts come from the reference rep — they are
// identical on every rep — as do the memory figures, which probes would
// inflate; timings are medians over the traced reps. The last traced
// rep's spans are written to dir.
func perLayer(workload string, reps []*rep, out map[string]metric, dir string) error {
	set := setter(perLayerDefs, out)
	for _, d := range perLayerDefs {
		set(d.Name, 0)
	}
	ref, traced := reps[0], reps[1:]
	x := ref.exact
	set("mem.alloc_kb_per_event", share(float64(ref.allocBytes)/1e3, ref.steps()))
	set("mem.mallocs_per_event", share(float64(ref.mallocs), ref.steps()))
	set("mem.gc_cycles", float64(ref.gcCycles))
	set("mem.gc_pause_ms", float64(ref.gcPauseNs)/1e6)
	set("apps.commit_p50_vms", x.commitP50Vms)
	set("apps.commit_mean_vms", x.commitMeanVms)
	set("apps.commit_p99_vms", x.commitP99Vms)
	set("trace.overhead_frac", share(over(traced, func(r *rep) float64 { return median(r.sortedUs()) / r.slow }), median(ref.sortedUs())/ref.slow)-1)
	set("host.slowdown", over(reps, func(r *rep) float64 { return r.slow }))

	var spans []span
	if ref.states > 0 {
		spans = offlineLayers(ref, traced, set)
	} else {
		spans = liveLayers(ref, traced, set)
	}
	if err := checkSpans(spans); err != nil {
		return fmt.Errorf("%s: span integrity: %w", workload, err)
	}
	return writeSpans(filepath.Join(dir, "spans-"+workload+".jsonl"), spans)
}

// liveLayers fills the per-layer metrics of a live workload and returns
// the last traced rep's spans.
func liveLayers(ref *rep, traced []*rep, set func(string, float64)) []span {
	x := ref.exact
	ops := float64(x.ops)
	set("sim.events", float64(x.events))
	set("sim.events_per_op", share(float64(x.events), ops))
	miss := 0
	for _, v := range ref.eventsUs {
		if v > float64(decisionSlot)/1e3 {
			miss++
		}
	}
	set("sim.slot_miss_frac", share(float64(miss), float64(x.events)))
	set("transport.sent", float64(x.net.Sent))
	set("transport.delivered", float64(x.net.Delivered))
	set("transport.dropped", float64(x.net.Dropped))
	set("transport.msgs_per_op", share(float64(x.net.Sent), ops))
	set("transport.bytes_per_op", share(float64(x.net.Bytes), ops))
	c := ref.core
	set("checkpoint.integrated", float64(c.Checkpoints))
	set("core.steer_checks", float64(c.SteeringChecks))
	set("core.steered", float64(c.Steered))
	set("core.lookahead_states", float64(c.LookaheadStates))
	set("core.states_per_check", share(float64(c.LookaheadStates), float64(c.SteeringChecks+c.Predictions+c.AsyncPredictions)))
	set("core.choices", float64(c.Choices))
	set("core.predictions", float64(c.Predictions))
	set("core.async_predictions", float64(c.AsyncPredictions))
	set("core.cache_hit_frac", c.CacheHitRate())
	set("core.class_hit_frac", c.ClassCacheHitRate())
	set("core.class_invalidations", float64(c.ClassInvalidations))
	set("core.dropped_windows", float64(c.DroppedWindows))
	// The runtime's own log2 histograms: exact only within 2x.
	set("core.steer_p50_us", float64(c.SteerLatency.Percentile(50))/1e3)
	set("core.steer_p99_us", float64(c.SteerLatency.Percentile(99))/1e3)
	set("core.resolve_p50_us", float64(c.ResolveLatency.Percentile(50))/1e3)
	set("core.resolve_p99_us", float64(c.ResolveLatency.Percentile(99))/1e3)
	set("failure.max_commit_gap_vms", x.maxGapVms)

	tm := func(f func(t *liveTrace) float64) float64 {
		return over(traced, func(r *rep) float64 { return f(r.trace) })
	}
	class := func(c eventClass, p float64) float64 {
		return tm(func(t *liveTrace) float64 { return percentile(sortedCopy(t.classUs[c]), p) })
	}
	timeShare := func(c eventClass) float64 {
		return tm(func(t *liveTrace) float64 {
			total := 0.0
			for _, us := range t.classUs {
				total += sum(us)
			}
			return share(sum(t.classUs[c]), total)
		})
	}
	set("sim.plain_event_p50_us", class(classPlain, 50))
	set("checkpoint.event_p50_us", class(classCheckpoint, 50))
	set("checkpoint.time_share", timeShare(classCheckpoint))
	set("core.decision_event_p50_us", class(classDecision, 50))
	set("core.decision_event_p99_us", class(classDecision, 99))
	set("core.decision_time_share", timeShare(classDecision))
	set("core.inject_p50_us", tm(func(t *liveTrace) float64 { return percentile(sortedCopy(t.injectUs), 50) }))
	set("core.inject_p99_us", tm(func(t *liveTrace) float64 { return percentile(sortedCopy(t.injectUs), 99) }))
	set("failure.events", tm(func(t *liveTrace) float64 { return float64(len(t.classUs[classFault])) }))

	p50 := func(name string) float64 {
		return tm(func(t *liveTrace) float64 { return medianOf(t.byName[name]) })
	}
	lastOf := func(name string) float64 {
		return tm(func(t *liveTrace) float64 { return last(t.byName[name]) })
	}
	set("checkpoint.snapshot_us_p50", p50("checkpoint.snapshot"))
	set("apps.clone_us_p50", p50("apps.clone"))
	set("apps.clone_us_last", lastOf("apps.clone"))
	set("apps.digest_us_p50", p50("apps.digest"))
	set("apps.digest_us_last", lastOf("apps.digest"))
	set("model.buildworld_us_p50", p50("model.buildworld"))
	set("model.buildworld_us_last", lastOf("model.buildworld"))
	set("model.known_peers", tm(func(t *liveTrace) float64 { return medianOf(t.knownPeers) }))
	set("explore.prime_us_p50", p50("explore.prime"))
	set("explore.prime_us_last", lastOf("explore.prime"))
	set("explore.fork_us_p50", p50("explore.fork"))
	set("explore.lookahead_us_p50", p50("explore.lookahead"))
	set("explore.lookahead_us_p99", tm(func(t *liveTrace) float64 { return percentile(sortedCopy(t.byName["explore.lookahead"]), 99) }))
	set("explore.lookahead_states_p50", tm(func(t *liveTrace) float64 { return medianOf(t.lookStates) }))
	set("explore.ns_per_state", tm(func(t *liveTrace) float64 { return share(sum(t.byName["explore.lookahead"])*1e3, sum(t.lookStates)) }))
	set("explore.classes_us_p50", p50("explore.classes"))
	set("explore.digestfull_us_p50", p50("explore.digestfull"))
	set("core.materialize_us_p50", p50("core.materialize"))
	set("core.materialize_us_last", lastOf("core.materialize"))
	set("trace.probes", tm(func(t *liveTrace) float64 { return float64(t.probes) }))
	return traced[len(traced)-1].trace.rec.spans
}

// offlineLayers fills the per-layer metrics of an offline workload and
// returns the last traced rep's spans.
func offlineLayers(ref *rep, traced []*rep, set func(string, float64)) []span {
	tm := func(f func(t *offlineTrace) float64) float64 {
		return over(traced, func(r *rep) float64 { return f(r.offTrace) })
	}
	set("explore.states_per_s", share(float64(ref.states), ref.wallS))
	set("explore.mallocs_per_state", share(float64(ref.mallocs), float64(ref.states)))
	set("explore.elapsed_s", tm(func(t *offlineTrace) float64 { return medianOf(t.elapsedS) }))
	set("explore.max_depth", tm(func(t *offlineTrace) float64 { return float64(t.maxDepth) }))
	set("explore.states_per_s_w1", tm(func(t *offlineTrace) float64 { return t.seqStatesPerS }))
	set("explore.max_depth_w1", tm(func(t *offlineTrace) float64 { return float64(t.seqMaxDepth) }))
	set("explore.worker_high_water", tm(func(t *offlineTrace) float64 { return float64(t.highWater) }))
	set("explore.steal_misses", tm(func(t *offlineTrace) float64 { return float64(t.stealMisses) }))
	set("explore.violation_classes", tm(func(t *offlineTrace) float64 { return float64(t.classes) }))
	set("trace.probes", tm(func(t *offlineTrace) float64 { return float64(len(t.elapsedS)) }))
	return traced[len(traced)-1].offTrace.rec.spans
}
