// Command crystalball runs the motivating-example experiments from the
// paper's Section 3.1 — gossip peer choice (E5), content-distribution
// block choice (E6), and consensus proposer choice (E7) — comparing the
// conventional strategies against the CrystalBall predictive runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crystalchoice/internal/apps/dissem"
	"crystalchoice/internal/apps/gossip"
	"crystalchoice/internal/apps/paxos"
	"crystalchoice/internal/apps/randtree"
	"crystalchoice/internal/apps/tracker"
	"crystalchoice/internal/cliutil"
	"crystalchoice/internal/core"
	"crystalchoice/internal/profiling"
)

// runtimeCfg is the runtime configuration every experiment hands its
// cluster: the fault budget of predictive resolution's lookaheads
// (-faults, -partitions) and the cache of resolution verdicts under
// scenario keys (-classcache).
var runtimeCfg core.Config

// main delegates to run so deferred profile writers flush before exit.
func main() { os.Exit(run()) }

func run() int {
	app := flag.String("app", "all", "experiment to run: gossip | dissem | paxos | overload | steering | tracker | all")
	seed := flag.Int64("seed", 1, "first seed")
	seeds := flag.Int("seeds", 3, "seeds to average over")
	flag.IntVar(&runtimeCfg.FaultBudget, "faults", 0, "fault-transition budget per predictive-resolution lookahead (crash/recover/reset)")
	flag.BoolVar(&runtimeCfg.PartitionFaults, "partitions", false, "also explore partition transitions in predictive-resolution lookaheads (needs -faults > 0)")
	flag.BoolVar(&runtimeCfg.LookaheadClassCache, "classcache", false, "cache resolution verdicts under scenario keys")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()
	if err := cliutil.FirstErr(
		cliutil.Positive("seeds", *seeds),
		cliutil.NonNegative("faults", runtimeCfg.FaultBudget),
		cliutil.Requires("partitions", runtimeCfg.PartitionFaults, "-faults > 0", runtimeCfg.FaultBudget > 0),
	); err != nil {
		fmt.Fprintf(os.Stderr, "crystalball: %v\n", err)
		flag.Usage()
		return 2
	}
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crystalball: %v\n", err)
		return 2
	}
	defer stopProfiles()

	switch *app {
	case "gossip":
		runGossip(*seed, *seeds)
	case "dissem":
		runDissem(*seed, *seeds)
	case "paxos":
		runPaxos(*seed, *seeds)
	case "overload":
		runOverload(*seed, *seeds)
	case "steering":
		runSteering(*seed)
	case "tracker":
		runTracker(*seed, *seeds)
	case "all":
		runGossip(*seed, *seeds)
		fmt.Println()
		runDissem(*seed, *seeds)
		fmt.Println()
		runPaxos(*seed, *seeds)
		fmt.Println()
		runOverload(*seed, *seeds)
		fmt.Println()
		runSteering(*seed)
		fmt.Println()
		runTracker(*seed, *seeds)
	default:
		fmt.Fprintf(os.Stderr, "crystalball: unknown -app %q (gossip|dissem|paxos|overload|steering|tracker|all)\n", *app)
		return 2
	}
	return 0
}

func runOverload(seed0 int64, seeds int) {
	fmt.Println("E7b — consensus under proposer CPU overload (uniform network)")
	fmt.Printf("%-12s %14s %12s\n", "policy", "mean commit", "committed")
	for _, p := range paxos.Policies {
		var mean float64
		committed, submitted := 0, 0
		for k := 0; k < seeds; k++ {
			r := paxos.Run(paxos.ExperimentConfig{
				Seed: seed0 + int64(k), Policy: p, Runtime: runtimeCfg,
				UniformLatency: 20 * time.Millisecond,
				WorkDelay:      60 * time.Millisecond,
				Interarrival:   40 * time.Millisecond,
				Commands:       30,
			})
			mean += r.MeanCommit.Seconds()
			committed += r.Committed
			submitted += r.Submitted
		}
		fmt.Printf("%-12s %13.3fs %9d/%d\n", p, mean/float64(seeds), committed, submitted)
	}
}

func runSteering(seed int64) {
	fmt.Println("E8 — execution steering (forged parent-cycle message, 15-node tree)")
	fmt.Printf("%-10s %18s %14s %10s %10s\n", "steering", "forged delivered", "cycle formed", "steered", "checks")
	for _, on := range []bool{false, true} {
		rt := runtimeCfg
		rt.Steering = on
		r := randtree.RunSteering(randtree.ExperimentConfig{N: 15, Seed: seed, Runtime: rt})
		mode := "off"
		if on {
			mode = "on"
		}
		fmt.Printf("%-10s %18v %14v %10d %10d\n", mode, r.ForgedDelivered, r.CycleFormed, r.Steered, r.SteeringChecks)
	}
}

func runGossip(seed0 int64, seeds int) {
	fmt.Println("E5 — gossip peer choice (16 nodes, 4 behind slow links, 6 updates)")
	fmt.Printf("%-12s %14s %14s %14s %14s\n", "strategy", "mean", "max", "fast mean", "fast max")
	for _, s := range gossip.Strategies {
		var mean, max, fmean, fmax float64
		for k := 0; k < seeds; k++ {
			r := gossip.Run(gossip.ExperimentConfig{N: 16, Seed: seed0 + int64(k), Strategy: s, SlowNodes: 4, Updates: 6, Runtime: runtimeCfg})
			mean += r.MeanDissemination.Seconds()
			max += r.MaxDissemination.Seconds()
			fmean += r.FastMeanDissemination.Seconds()
			fmax += r.FastMaxDissemination.Seconds()
		}
		k := float64(seeds)
		fmt.Printf("%-12s %13.3fs %13.3fs %13.3fs %13.3fs\n", s, mean/k, max/k, fmean/k, fmax/k)
	}
}

func runDissem(seed0 int64, seeds int) {
	fmt.Println("E6 — content-distribution block choice (10 peers, 16 blocks)")
	fmt.Printf("%-18s %-12s %14s %14s\n", "setting", "strategy", "mean compl.", "max compl.")
	for _, set := range dissem.Settings {
		for _, s := range dissem.Strategies {
			var mean, max float64
			for k := 0; k < seeds; k++ {
				r := dissem.Run(dissem.ExperimentConfig{N: 10, Blocks: 16, Seed: seed0 + int64(k), Strategy: s, Setting: set, Runtime: runtimeCfg})
				mean += r.MeanCompletion.Seconds()
				max += r.MaxCompletion.Seconds()
			}
			k := float64(seeds)
			fmt.Printf("%-18s %-12s %13.3fs %13.3fs\n", set, s, mean/k, max/k)
		}
	}
}

func runPaxos(seed0 int64, seeds int) {
	fmt.Println("E7 — consensus proposer choice (5 WAN sites, 30 commands)")
	fmt.Printf("%-12s %14s %14s %12s\n", "policy", "mean commit", "p99 commit", "committed")
	for _, p := range paxos.Policies {
		var mean, p99 float64
		committed, submitted := 0, 0
		for k := 0; k < seeds; k++ {
			r := paxos.Run(paxos.ExperimentConfig{Seed: seed0 + int64(k), Policy: p, Runtime: runtimeCfg})
			mean += r.MeanCommit.Seconds()
			p99 += r.P99Commit.Seconds()
			committed += r.Committed
			submitted += r.Submitted
		}
		k := float64(seeds)
		fmt.Printf("%-12s %13.3fs %13.3fs %9d/%d\n", p, mean/k, p99/k, committed, submitted)
	}
}

func runTracker(seed0 int64, seeds int) {
	fmt.Println("E9 — tracker peer choice across two ISPs (P4P)")
	fmt.Printf("%-10s %14s %16s %12s\n", "policy", "cross-ISP", "mean completion", "completed")
	for _, p := range tracker.Policies {
		var frac, mean float64
		completed, peers := 0, 0
		for k := 0; k < seeds; k++ {
			r := tracker.Run(tracker.ExperimentConfig{Seed: seed0 + int64(k), Policy: p, Runtime: runtimeCfg})
			frac += r.CrossFraction()
			mean += r.MeanCompletion.Seconds()
			completed += r.Completed
			peers += r.Peers
		}
		k := float64(seeds)
		fmt.Printf("%-10s %13.1f%% %15.3fs %9d/%d\n", p, frac/k*100, mean/k, completed, peers)
	}
}
