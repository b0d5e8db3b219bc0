// Package loadbench is the live-traffic steering benchmark harness: a
// yab-style open-loop load generator that drives sustained client
// operations — paxos proposals, tracker joins, gossip publishes — against
// the app harnesses' Deploy path and measures, in wall-clock time, what
// the CrystalBall runtime costs on the request path.
//
// The paper's pitch only holds if steering and choice-resolution
// decisions land inside the live system's delivery window; every earlier
// experiment published offline states/sec. loadbench closes that gap: it
// schedules operations at a fixed target rate on the virtual clock
// (open-loop — a slow decision cannot shed load by back-pressuring the
// generator), wraps each injection in a wall-clock stopwatch, and reads
// the runtime's own decision-latency histograms (Stats.SteerLatency,
// Stats.ResolveLatency) plus the dropped-window counter that fires when a
// decision overruns Config.DecisionSlot.
//
// A run has three phases: warmup (traffic flows, nothing recorded),
// measurement (Duration long, everything recorded), and a snapshot diff —
// warmup-phase samples are excluded via LatencyHist.Delta and counter
// subtraction, so caches warming and checkpoints propagating do not
// pollute the steady-state numbers.
package loadbench

import (
	"fmt"
	"time"

	"crystalchoice/internal/core"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/scenario"
)

// Config parameterizes one load run.
type Config struct {
	// App selects the workload: "paxos" (SubmitCmd proposals), "tracker"
	// (EnrollOne joins), or "gossip" (PublishUpdate churn).
	App string
	// N is the deployment size (the tracker app adds one tracker node).
	N int
	// Seed drives the simulation and the origin-rotation RNG.
	Seed int64
	// TargetRPS is the open-loop operation rate on the virtual clock.
	TargetRPS float64
	// Warmup runs traffic without recording; Duration is the measured
	// phase.
	Warmup, Duration time.Duration
	// Steering enables execution steering over the app's safety property.
	Steering bool
	// Resolver selects choice resolution: "random" or "predictive".
	Resolver string
	// DecisionSlot is the wall-clock delivery-window budget; decisions
	// overrunning it count as dropped windows. Zero disables counting.
	DecisionSlot time.Duration
	// Lookahead configures the exploration engine of runtime lookaheads
	// (see core.Config.Lookahead).
	Lookahead explore.Options
	// LookaheadClassCache caches steering/resolve verdicts under
	// canonical violation-class and scenario keys, skipping full
	// lookaheads for previously judged scenarios (see
	// core.Config.LookaheadClassCache).
	LookaheadClassCache bool
	// Spec optionally scripts faults under the traffic: only the spec's
	// fault timeline (Faults + Flaps) is used — topology, resolver, and
	// workload still come from this Config. Restart/reset events use the
	// load deployment's own cold-restart factory.
	Spec *scenario.Spec
}

func (c *Config) fill() error {
	if c.App == "" {
		c.App = "paxos"
	}
	if c.N == 0 {
		c.N = 5
	}
	if c.TargetRPS == 0 {
		c.TargetRPS = 50
	}
	if c.TargetRPS < 0 {
		return fmt.Errorf("loadbench: TargetRPS must be positive, got %v", c.TargetRPS)
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Duration == 0 {
		c.Duration = 10 * time.Second
	}
	if c.Resolver == "" {
		c.Resolver = "random"
	}
	if c.Resolver != "random" && c.Resolver != "predictive" {
		return fmt.Errorf("loadbench: unknown resolver %q (want random or predictive)", c.Resolver)
	}
	return nil
}

// Result is the measured-phase view of one run. All histograms and
// counters exclude the warmup phase.
type Result struct {
	Config Config

	// Ops counts operations issued in the measured phase; VirtualRPS is
	// Ops over the measured virtual time (≈ TargetRPS by construction —
	// open-loop generators do not shed load).
	Ops        int
	VirtualRPS float64
	// WallSeconds is the wall-clock cost of simulating the measured
	// phase; WallOpsPerSec is Ops over it — how much real time each
	// operation's slice of the full run (decisions included) costs.
	WallSeconds   float64
	WallOpsPerSec float64

	// OpLatency is the wall-clock cost of the injection path itself:
	// steering check + dispatch + any synchronous choice resolution.
	OpLatency core.LatencyHist
	// SteerLatency and ResolveLatency are the runtime's own decision
	// histograms (cluster-wide), warmup excluded.
	SteerLatency   core.LatencyHist
	ResolveLatency core.LatencyHist

	Steered, SteeringChecks          uint64
	CacheHits, CacheMisses           uint64
	ClassCacheHits, ClassCacheMisses uint64
	ClassInvalidations               uint64
	DroppedWindows                   uint64
	Predictions, AsyncPredictions    uint64
	LookaheadStates                  uint64

	// StateDigest is the full digest of the cluster's final state,
	// materialized as an explorer world. Identical configs must produce
	// identical digests — wall-clock instrumentation never feeds the
	// virtual execution.
	StateDigest uint64
}

// CacheHitRate returns lookahead decision-cache hits over lookups.
func (r Result) CacheHitRate() float64 { return core.HitRate(r.CacheHits, r.CacheMisses) }

// ClassCacheHitRate returns class-verdict cache hits over lookups.
func (r Result) ClassCacheHitRate() float64 {
	return core.HitRate(r.ClassCacheHits, r.ClassCacheMisses)
}

// Run executes one load run: deploy, schedule the open-loop op stream
// across warmup+duration, run the warmup, snapshot, run the measured
// phase, and return the deltas.
func Run(cfg Config) (Result, error) {
	if err := cfg.fill(); err != nil {
		return Result{}, err
	}
	d, err := build(&cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.Spec != nil {
		sched, err := cfg.Spec.Compile(d.fresh)
		if err != nil {
			return Result{}, fmt.Errorf("loadbench: compiling fault spec: %w", err)
		}
		sched.Install(d.cl)
	}

	// Open loop: every operation's issue time is fixed up front on the
	// virtual clock. A decision that overruns its window delays the
	// simulation's wall-clock, never the op schedule.
	res := Result{Config: cfg}
	interarrival := time.Duration(float64(time.Second) / cfg.TargetRPS)
	if interarrival <= 0 {
		interarrival = time.Nanosecond
	}
	total := cfg.Warmup + cfg.Duration
	for seq := 0; time.Duration(seq)*interarrival < total; seq++ {
		at := time.Duration(seq) * interarrival
		seq := seq
		d.eng.Schedule(at, func() {
			start := time.Now()
			d.op(seq)
			lat := time.Since(start)
			if at >= cfg.Warmup {
				res.OpLatency.Observe(lat)
				res.Ops++
			}
		})
	}

	d.eng.RunFor(cfg.Warmup)
	warm := d.cl.Stats()
	wallStart := time.Now()
	d.eng.RunFor(cfg.Duration)
	res.WallSeconds = time.Since(wallStart).Seconds()
	final := d.cl.Stats()

	res.SteerLatency = final.SteerLatency.Delta(warm.SteerLatency)
	res.ResolveLatency = final.ResolveLatency.Delta(warm.ResolveLatency)
	res.Steered = final.Steered - warm.Steered
	res.SteeringChecks = final.SteeringChecks - warm.SteeringChecks
	res.CacheHits = final.CacheHits - warm.CacheHits
	res.CacheMisses = final.CacheMisses - warm.CacheMisses
	res.ClassCacheHits = final.ClassCacheHits - warm.ClassCacheHits
	res.ClassCacheMisses = final.ClassCacheMisses - warm.ClassCacheMisses
	res.ClassInvalidations = final.ClassInvalidations - warm.ClassInvalidations
	res.DroppedWindows = final.DroppedWindows - warm.DroppedWindows
	res.Predictions = final.Predictions - warm.Predictions
	res.AsyncPredictions = final.AsyncPredictions - warm.AsyncPredictions
	res.LookaheadStates = final.LookaheadStates - warm.LookaheadStates
	res.VirtualRPS = float64(res.Ops) / cfg.Duration.Seconds()
	if res.WallSeconds > 0 {
		res.WallOpsPerSec = float64(res.Ops) / res.WallSeconds
	}
	res.StateDigest = d.cl.MaterializeWorld(explore.FirstPolicy, cfg.Seed, d.timers).DigestFull()
	return res, nil
}
