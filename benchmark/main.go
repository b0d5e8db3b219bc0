// Command bench is the repository's benchmark: one workload per
// invocation, replayed on fresh deployments until the wall-clock budget
// is spent, every rep checked for correctness and for run-to-run
// determinism, and one JSON result printed as the last line of standard
// output. See README.md for the workloads, the metrics and how they are
// expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// watchdogLimit is the hard ceiling on one invocation: past it the
// process exits 3 without a result, whatever it is doing.
const watchdogLimit = 170 * time.Second

// spansDir is where a traced run writes spans-<workload>.jsonl, relative
// to the repository root run.sh starts the binary in.
const spansDir = "benchmark/out"

// minReps is the least number of reps a run replays, so that the
// determinism contract (identical digests, counts and virtual metrics
// across reps) is checked on every run.
const minReps = 2

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "wall seconds of measured phase to accumulate over reps")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from untraced reps; 1: per-layer metrics from traced reps")
	flag.Parse()

	time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintln(os.Stderr, "bench: watchdog: run exceeded", watchdogLimit)
		os.Exit(3)
	})
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	var run runner
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
		if w.name == *workload {
			run = w.run
		}
	}
	if run.rep == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q; have %v\n", *workload, names)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(run.procs)

	reps, err := replay(run, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
	res := result{Correct: true, Metrics: make(map[string]metric)}
	for _, r := range reps {
		res.Attempted += r.exact.ops
		res.Failed += r.exact.failed
	}
	if *trace == 1 {
		if err := perLayer(*workload, reps, res.Metrics, spansDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
			os.Exit(1)
		}
	} else {
		setups, err := extraSetups(run, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
			os.Exit(1)
		}
		endToEnd(reps, setups, res.Metrics)
	}
	report(*workload, *seed, reps, res)
}

// runner is one workload as the rep loop sees it.
type runner struct {
	// procs is the GOMAXPROCS the workload runs under: the threads it
	// needs and no more. A live workload is one goroutine; given a second
	// processor the collector runs beside it on the other vCPU — on the
	// reference container the other half of the same physical core — and
	// the run-to-run spread of every timing doubles.
	procs int
	// rep replays the workload once; a traced live rep probes every
	// probeEvery events (0: untraced).
	rep func(seed int64, probeEvery int) (*rep, error)
	// setup performs the workload's set-up alone and returns the seconds
	// it took, compensated for the host's slowdown around it.
	setup func(seed int64) (float64, error)
}

// liveRunner wraps a live spec; samples is the per-event stopwatch
// buffer its reps reuse, host the reference meter.
func liveRunner(s *liveSpec, samples *[]int64, host *hostMeter) runner {
	return runner{
		procs: 1,
		rep:   func(seed int64, probeEvery int) (*rep, error) { return runLive(s, seed, samples, host, probeEvery) },
		setup: func(seed int64) (float64, error) {
			_, _, el, slow, err := prepare(s, seed, host, nil)
			return el / slow, err
		},
	}
}

// offlineRunner wraps an offline spec.
func offlineRunner(s *offlineSpec, host *hostMeter) runner {
	return runner{
		procs: s.workers,
		rep:   func(seed int64, probeEvery int) (*rep, error) { return runOffline(s, seed, host, probeEvery > 0) },
		setup: func(seed int64) (float64, error) {
			_, el, slow := s.prepare(seed, host)
			return el / slow, nil
		},
	}
}

// workload is one named workload: why it was chosen and how to run it.
type workload struct {
	name, why string
	run       runner
}

// workloads lists every workload in the order BENCHMARK.json does: the
// live decision-path workloads, the offline ones, then the control.
func workloads() []workload {
	samples, host := new([]int64), newHostMeter()
	var live, offline []workload
	for i := range liveSpecs {
		s := &liveSpecs[i]
		live = append(live, workload{s.name, s.why, liveRunner(s, samples, host)})
	}
	for i := range offlineSpecs {
		s := &offlineSpecs[i]
		offline = append(offline, workload{s.name, s.why, offlineRunner(s, host)})
	}
	control := len(live) - 1
	return append(append(live[:control:control], offline...), live[control])
}

// setupBudget bounds the extra set-ups a run performs for setup_s.
const (
	setupSamples = 9
	setupBudget  = 0.75 // wall seconds
)

// extraSetups sets the workload up again, on throwaway deployments, so
// that setup_s is the median of more samples than the run has reps: up
// to setupSamples more, within setupBudget.
func extraSetups(run runner, seed int64) ([]float64, error) {
	var out []float64
	spent := 0.0
	for k := 0; k < setupSamples && spent < setupBudget; k++ {
		el, err := run.setup(subSeed(seed, k))
		if err != nil {
			return nil, err
		}
		out = append(out, el)
		spent += el
	}
	return out, nil
}

// subSeed derives the input seed of a run's k-th distinct input.
func subSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// replay runs reps of one workload on fresh deployments until their
// measured phases add up to about seconds of wall time. Reps 0 and 1
// replay the same generated input and must agree exactly on digest,
// counts and virtual metrics (the run-twice determinism contract); each
// later rep gets the run's next input, so that the medians a run reports
// average over inputs as well as over machine noise. In a traced run rep
// 0 is untraced — the reference for the digest and for the tracing
// overhead — and the rest are traced: probes must be digest-neutral.
func replay(run runner, seed int64, seconds float64, traced bool) ([]*rep, error) {
	base := runtime.NumGoroutine()
	var reps []*rep
	spent := 0.0
	for {
		probeEvery := 0
		if traced && len(reps) > 0 {
			probeEvery = max(1, reps[0].exact.events/probeTarget)
		}
		r, err := run.rep(subSeed(seed, max(0, len(reps)-1)), probeEvery)
		if err != nil {
			return nil, err
		}
		if g := runtime.NumGoroutine(); g != base {
			return nil, fmt.Errorf("rep %d left %d goroutines running, %d before it", len(reps), g, base)
		}
		if len(reps) == 1 && r.exact != reps[0].exact {
			return nil, fmt.Errorf("rep 1 is not a replay of rep 0 (run-twice determinism broken, or a probe moved the digest):\n  rep 0: %+v\n  rep 1: %+v",
				reps[0].exact, r.exact)
		}
		reps = append(reps, r)
		spent += r.wallS
		if r.trace != nil {
			spent += r.trace.outsideS
		}
		// Stop once another rep would overshoot the budget by more than
		// it undershoots now.
		if len(reps) >= minReps && spent+0.5*spent/float64(len(reps)) >= seconds {
			return reps, nil
		}
	}
}

// over returns the median over reps of f.
func over(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return medianOf(xs)
}

// endToEnd fills the end-to-end metrics: each is computed per rep and
// the median over reps reported; setup_s is the median over the reps'
// set-ups and the extra ones.
func endToEnd(reps []*rep, setups []float64, out map[string]metric) {
	for _, r := range reps {
		setups = append(setups, r.setupS/r.setupSlow)
	}
	set := setter(endToEndDefs, out)
	set("setup_s", medianOf(setups))
	set("ops_per_s", over(reps, func(r *rep) float64 { return r.work() / r.wallS * r.slow }))
	set("event_p50_us", over(reps, func(r *rep) float64 { return r.p50Us() / r.slow }))
	set("event_tail_us", over(reps, func(r *rep) float64 { return r.tailUs() / r.slow }))
	set("cpu_us_per_event", over(reps, func(r *rep) float64 { return r.cpuUs() / r.slow }))
	set("age_slope", over(reps, func(r *rep) float64 { return ageSlope(r.eventsUs) }))
	set("commit_p50_delays", over(reps, func(r *rep) float64 { return r.exact.commitP50Delays }))
	set("live_heap_mb", over(reps, func(r *rep) float64 { return r.heapMB }))
}

// report prints every metric by name with its unit, then the result as
// one JSON object on the last line. Keys are sorted.
func report(workload string, seed int64, reps []*rep, res result) {
	fmt.Printf("workload %s seed %d: %d reps, %d events per rep, digest %016x\n",
		workload, seed, len(reps), reps[0].exact.events, reps[0].exact.digest)
	// As read off the clock, before compensation for the host's speed.
	for i, r := range reps {
		_, tail := tailPercentile(r.sortedUs(), r.tailBeyond)
		fmt.Printf("  rep %2d as measured: wall %.3f s, event p50 %.3f us, p%.0f %.3f us, cpu %.3f us/event; host slowdown %.3f (probes %.2f us, %.1f us), stolen %.0f ms\n",
			i, r.wallS, r.p50Us(), tail, r.tailUs(), r.cpuUs(), r.slow, r.host.clockNs/1e3, r.host.cacheNs/1e3, r.stealS*1e3)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
