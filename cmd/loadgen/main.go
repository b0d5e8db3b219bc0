// Command loadgen drives sustained client traffic — paxos proposals,
// tracker joins, gossip publishes — through the CrystalBall runtime and
// reports what its decisions cost in wall-clock time: per-operation
// latency, steering-decision and choice-resolution p50/p99, lookahead
// cache hit rate, and windows dropped against a delivery-slot budget.
// This is the live-traffic proof line the offline states/sec numbers
// cannot give: decisions must land inside the delivery window (paper §2).
//
// Examples:
//
//	loadgen -app paxos -n 5 -rps 50 -duration 10s -steering
//	loadgen -app gossip -matrix -json out.json
//	loadgen -app tracker -spec flaps.json -slot 1ms
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"crystalchoice/internal/cliutil"
	"crystalchoice/internal/explore"
	"crystalchoice/internal/loadbench"
	"crystalchoice/internal/scenario"
)

func main() { os.Exit(run()) }

func run() int {
	app := flag.String("app", "paxos", "workload: paxos | gossip | tracker")
	n := flag.Int("n", 5, "deployment size (tracker adds one tracker node)")
	seed := flag.Int64("seed", 1, "simulation seed")
	rps := flag.Float64("rps", 50, "open-loop target operations per virtual second")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup phase (virtual time, not recorded)")
	duration := flag.Duration("duration", 10*time.Second, "measured phase (virtual time)")
	steeringOn := flag.Bool("steering", false, "enable execution steering over the app's safety property")
	resolver := flag.String("resolver", "random", "choice resolution: random | predictive")
	slot := flag.Duration("slot", 0, "wall-clock delivery-slot budget; overrunning decisions count as dropped windows (0 = off)")
	workers := flag.Int("workers", 0, "lookahead worker pool size (0 = sequential)")
	classCache := flag.Bool("classcache", false, "cache steering/resolve verdicts under violation-class keys")
	autoWorkers := flag.Bool("autoworkers", false, "autoscale lookahead worker pools mid-run")
	specPath := flag.String("spec", "", "scenario spec JSON whose fault timeline runs under the traffic")
	jsonOut := flag.String("json", "", "write results as JSON to this path")
	matrix := flag.Bool("matrix", false, "run the full steering {off,on} x resolver {random,predictive} matrix")
	flag.Parse()

	if err := cliutil.FirstErr(
		cliutil.Positive("n", *n),
		cliutil.NonNegative("workers", *workers),
	); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		flag.Usage()
		return 2
	}
	if *rps <= 0 {
		fmt.Fprintln(os.Stderr, "loadgen: need -rps > 0")
		flag.Usage()
		return 2
	}

	var spec *scenario.Spec
	if *specPath != "" {
		s, err := scenario.Load(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		if err := s.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: invalid spec: %v\n", err)
			return 1
		}
		spec = s
	}

	base := loadbench.Config{
		App: *app, N: *n, Seed: *seed,
		TargetRPS: *rps, Warmup: *warmup, Duration: *duration,
		Steering: *steeringOn, Resolver: *resolver,
		DecisionSlot:        *slot,
		Lookahead:           explore.Options{Workers: *workers, AutoWorkers: *autoWorkers},
		LookaheadClassCache: *classCache,
		Spec:                spec,
	}

	var cells []loadbench.Config
	if *matrix {
		for _, st := range []bool{false, true} {
			for _, rv := range []string{"random", "predictive"} {
				c := base
				c.Steering, c.Resolver = st, rv
				cells = append(cells, c)
			}
		}
	} else {
		cells = []loadbench.Config{base}
	}

	fmt.Printf("%-9s %-10s %-8s %8s %10s %10s %10s %10s %8s %8s %8s %7s\n",
		"app", "resolver", "steering", "ops", "op-p50", "op-p99", "steer-p99", "rslv-p99", "hit%", "class%", "dropped", "steered")
	var results []loadbench.Result
	for _, c := range cells {
		res, err := loadbench.Run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		results = append(results, res)
		fmt.Printf("%-9s %-10s %-8v %8d %10v %10v %10v %10v %7.1f%% %7.1f%% %8d %7d\n",
			c.App, c.Resolver, c.Steering, res.Ops,
			res.OpLatency.Percentile(50), res.OpLatency.Percentile(99),
			res.SteerLatency.Percentile(99), res.ResolveLatency.Percentile(99),
			100*res.CacheHitRate(), 100*res.ClassCacheHitRate(),
			res.DroppedWindows, res.Steered)
	}
	r := results[len(results)-1]
	fmt.Printf("\nlast cell: virtual %.1f ops/s (target %.1f), wall %.2fs (%.0f ops/s), op max %v, state digest %#x\n",
		r.VirtualRPS, r.Config.TargetRPS, r.WallSeconds, r.WallOpsPerSec, r.OpLatency.Max(), r.StateDigest)

	if *jsonOut != "" {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*jsonOut, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return 0
}
